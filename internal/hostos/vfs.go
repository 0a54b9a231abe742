package hostos

// This file is the host ledger device-initiated log syscalls land on. It
// holds counts only — CPU cycles for the syscalls themselves are charged
// by the dispatcher (internal/syscall) on its worker-pool tasks, the same
// split the NFS client uses ("the entity hosting it charges cycles around
// the calls").

// VFS is one host's device log ledger: a log line is the only device
// syscall that changes host state. The perfbench module reads it through
// core.Runtime.VFS, which is why the name stays.
type VFS struct {
	m        *Machine
	logLines uint64
}

// NewVFS builds an empty ledger on the machine.
func NewVFS(m *Machine) *VFS { return &VFS{m: m} }

// Machine returns the host this ledger belongs to.
func (v *VFS) Machine() *Machine { return v.m }

// Log accounts one device log line reaching the host.
func (v *VFS) Log() { v.logLines++ }

// LogLines reports accounted log lines.
func (v *VFS) LogLines() uint64 { return v.logLines }
