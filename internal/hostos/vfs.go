package hostos

import (
	"errors"
	"fmt"
)

// This file is the host surface device-initiated syscalls execute against:
// an in-memory virtual filesystem, a byte-accounting net send surface, and
// host-memory maps handed out to devices. It holds state and data only —
// CPU cycles for the syscalls themselves are charged by the dispatcher
// (internal/syscall) on its worker-pool tasks, the same split the NFS
// client uses ("the entity hosting it charges cycles around the calls").

// VFS errors.
var (
	ErrNotExist = errors.New("hostos: file does not exist")
	ErrBadFD    = errors.New("hostos: bad file descriptor")
)

type vfsFile struct {
	data []byte
}

// VFS is one host's virtual file/net surface. All paths are flat strings.
type VFS struct {
	m      *Machine
	files  map[string]*vfsFile
	fds    map[int32]*vfsFile
	nextFD int32

	netBytes map[string]uint64 // bytes "sent" per destination
	maps     map[uint64]int    // live host-memory maps (addr → size)
	logLines uint64
}

// NewVFS builds an empty surface on the machine.
func NewVFS(m *Machine) *VFS {
	return &VFS{
		m:        m,
		files:    make(map[string]*vfsFile),
		fds:      make(map[int32]*vfsFile),
		nextFD:   3, // 0..2 reserved, unix-style
		netBytes: make(map[string]uint64),
		maps:     make(map[uint64]int),
	}
}

// Machine returns the host this surface belongs to.
func (v *VFS) Machine() *Machine { return v.m }

// FileSize reports a local file's size, or -1 if absent.
func (v *VFS) FileSize(path string) int {
	f, ok := v.files[path]
	if !ok {
		return -1
	}
	return len(f.data)
}

// Open resolves path to a descriptor. create makes missing files; without
// it a missing path fails with ErrNotExist.
func (v *VFS) Open(path string, create bool) (int32, error) {
	f, ok := v.files[path]
	if !ok {
		if !create {
			return -1, fmt.Errorf("%w: %s", ErrNotExist, path)
		}
		f = &vfsFile{}
		v.files[path] = f
	}
	id := v.nextFD
	v.nextFD++
	v.fds[id] = f
	return id, nil
}

// Read returns up to count bytes at offset. The returned slice is a copy.
func (v *VFS) Read(fd int32, offset int64, count int) ([]byte, error) {
	f, ok := v.fds[fd]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrBadFD, fd)
	}
	if offset >= int64(len(f.data)) || count <= 0 {
		return nil, nil
	}
	end := offset + int64(count)
	if end > int64(len(f.data)) {
		end = int64(len(f.data))
	}
	return append([]byte(nil), f.data[offset:end]...), nil
}

// Write stores data at offset, extending the file as needed.
func (v *VFS) Write(fd int32, offset int64, data []byte) (int, error) {
	f, ok := v.fds[fd]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrBadFD, fd)
	}
	end := offset + int64(len(data))
	if end > int64(len(f.data)) {
		grown := make([]byte, end)
		copy(grown, f.data)
		f.data = grown
	}
	copy(f.data[offset:end], data)
	return len(data), nil
}

// CloseFD releases a descriptor. Closing an unknown FD is ErrBadFD.
func (v *VFS) CloseFD(fd int32) error {
	if _, ok := v.fds[fd]; !ok {
		return fmt.Errorf("%w: %d", ErrBadFD, fd)
	}
	delete(v.fds, fd)
	return nil
}

// OpenFDs reports descriptors currently live.
func (v *VFS) OpenFDs() int { return len(v.fds) }

// NetSend accounts n bytes sent toward dst on the host net surface.
func (v *VFS) NetSend(dst string, n int) {
	if n > 0 {
		v.netBytes[dst] += uint64(n)
	}
}

// NetSent reports bytes accounted toward dst.
func (v *VFS) NetSent(dst string) uint64 { return v.netBytes[dst] }

// Map hands the device a host-memory buffer of size bytes, pinned in the
// machine's ledger until Unmap.
func (v *VFS) Map(size int) uint64 {
	addr := v.m.Alloc(size)
	if size > 0 {
		v.maps[addr] = size
	}
	return addr
}

// Unmap releases a Map-ed buffer. Unknown addresses are a *FreeError.
func (v *VFS) Unmap(addr uint64) error {
	size, ok := v.maps[addr]
	if !ok {
		return &FreeError{Addr: addr, Reason: "not a live host-memory map"}
	}
	if err := v.m.Free(addr, size); err != nil {
		return err
	}
	delete(v.maps, addr)
	return nil
}

// LiveMaps reports host-memory maps not yet unmapped.
func (v *VFS) LiveMaps() int { return len(v.maps) }

// Log accounts one device log line reaching the host.
func (v *VFS) Log() { v.logLines++ }

// LogLines reports accounted log lines.
func (v *VFS) LogLines() uint64 { return v.logLines }
