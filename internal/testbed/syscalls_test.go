package testbed

import (
	"testing"

	"hydra/internal/device"
	"hydra/internal/syscall"
)

// TestHostSyscallPlanes builds a host whose devices get build-time syscall
// planes and drives log and clock syscalls through the ready-made issuers.
func TestHostSyscallPlanes(t *testing.T) {
	sys, err := New(7, Spec{
		Hosts: []HostSpec{{
			Name: "h",
			Devices: []device.Config{
				device.XScaleNIC("h-nic"),
				device.SmartDisk("h-disk"),
			},
			Syscalls: &SyscallSpec{Profile: syscall.BlockingProfile()},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := sys.Host("h")
	if h.VFS == nil {
		t.Fatal("no VFS built")
	}
	if len(h.Syscalls) != 2 || h.Syscalls[0].Device.Name() != "h-nic" || h.Syscalls[1].Device.Name() != "h-disk" {
		t.Fatalf("planes = %d, want one per device in declaration order", len(h.Syscalls))
	}
	nic, disk := h.Syscalls[0], h.Syscalls[1]

	var clock int64
	err = disk.Issuer.Issue(syscall.OpClock, syscall.ModeSync, nil, func(c *syscall.Completion) {
		if c.Err != "" {
			t.Errorf("clock: %s", c.Err)
			return
		}
		clock = c.Results[0].(int64)
		if err := disk.Issuer.Log("disk clock read", syscall.ModeSync); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := nic.Issuer.Log("nic up", syscall.ModeFireForget); err != nil {
		t.Fatal(err)
	}
	sys.Eng.RunAll()

	if clock <= 0 {
		t.Fatalf("host clock = %d", clock)
	}
	if h.VFS.LogLines() != 2 {
		t.Fatalf("log lines = %d, want 2", h.VFS.LogLines())
	}
	st := disk.Issuer.Stats()
	st.Add(disk.Service.Stats())
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
