package testbed

import (
	"bytes"
	"testing"

	"hydra/internal/device"
	"hydra/internal/syscall"
)

// TestHostSyscallPlanes builds a host whose devices get build-time syscall
// planes and drives typed syscalls through the ready-made issuers.
func TestHostSyscallPlanes(t *testing.T) {
	sys, err := New(7, Spec{
		Hosts: []HostSpec{{
			Name: "h",
			Devices: []device.Config{
				device.XScaleNIC("h-nic"),
				device.SmartDisk("h-disk"),
			},
			Syscalls: &SyscallSpec{Profile: syscall.DefaultProfile()},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := sys.Host("h")
	if h.VFS == nil {
		t.Fatal("no VFS built")
	}
	fd, err := h.VFS.Open("/etc/cfg", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.VFS.Write(fd, 0, []byte("tuned")); err != nil {
		t.Fatal(err)
	}
	if err := h.VFS.CloseFD(fd); err != nil {
		t.Fatal(err)
	}
	if len(h.Syscalls) != 2 {
		t.Fatalf("planes = %d, want 2 (one per device)", len(h.Syscalls))
	}
	if h.Syscall("h-disk") == nil || h.Syscall("h-nic") == nil {
		t.Fatal("Syscall lookup by device name failed")
	}
	if h.Syscall("nope") != nil {
		t.Fatal("Syscall lookup for unknown device should be nil")
	}

	var got []byte
	disk := h.Syscall("h-disk").Issuer
	err = disk.Open("/etc/cfg", false, syscall.ModeSync, func(fd int64, err error) {
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		disk.Read(fd, 0, 64, syscall.ModeSync, func(data []byte, err error) {
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			got = data
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Syscall("h-nic").Issuer.Log("nic up", syscall.ModeFireForget); err != nil {
		t.Fatal(err)
	}
	sys.Eng.RunAll()

	if !bytes.Equal(got, []byte("tuned")) {
		t.Fatalf("read %q, want %q", got, "tuned")
	}
	if h.VFS.LogLines() != 1 {
		t.Fatalf("log lines = %d, want 1", h.VFS.LogLines())
	}
	st := disk.Stats()
	st.Add(h.Syscall("h-disk").Service.Stats())
	if st.Issued != 2 || st.Completed != 2 || st.Executed != 2 {
		t.Fatalf("stats = %+v, want 2 issued/completed/executed", st)
	}
}

// TestSyscallSpecValidation covers the device-less host error path.
func TestSyscallSpecValidation(t *testing.T) {
	_, err := New(1, Spec{Hosts: []HostSpec{{
		Name:     "h",
		Syscalls: &SyscallSpec{},
	}}})
	if err == nil {
		t.Fatal("Syscalls on a device-less host should fail the build")
	}
}
