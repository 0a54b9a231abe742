package core

import (
	"fmt"

	"hydra/internal/hostos"
	"hydra/internal/resource"
	"hydra/internal/syscall"
)

// This file wires the reverse-RPC syscall subsystem (internal/syscall)
// into application sessions: a session opens a "syscall plane" for one of
// its deployed Offcodes, which gives the Offcode's device a dedicated
// batched channel into a host-side dispatcher that counts the Offcode's
// log lines on the runtime's VFS ledger. The Offcode side receives the
// device endpoint through the ordinary ChannelConnected notification and
// wraps it in a syscall.Issuer charged against the credit node created
// here.

// VFS returns the host's device log ledger, creating it on first use.
// All syscall planes on this runtime share it, so one count covers every
// device Offcode's log lines, as one kernel log would.
func (rt *Runtime) VFS() *hostos.VFS {
	if rt.vfs == nil {
		rt.vfs = hostos.NewVFS(rt.host)
	}
	return rt.vfs
}

// SyscallPlane is one Offcode's host-syscall wiring, owned by the session
// that opened it: closing the session closes the plane's channel.
type SyscallPlane struct {
	Service *syscall.Service
	// Credits is the resource node limiting the Offcode's in-flight
	// syscalls (QuotaSyscalls); hand it to syscall.NewIssuer.
	Credits *resource.Node
}

// OpenSyscalls gives target a host-syscall plane: a dedicated reliable
// channel sized by prof (requests and completions both batch per
// prof.Batch/Coalesce), a dispatcher Service over the runtime's VFS, and
// a per-Offcode credit quota of prof.CreditLimit() in-flight calls. The
// channel is charged to this session like any CreateChannel; the target
// Offcode sees the device endpoint via ChannelConnected and should attach
// a syscall.Issuer to it.
func (a *App) OpenSyscalls(target *Handle, prof syscall.Profile) (*SyscallPlane, error) {
	if a.closed {
		return nil, fmt.Errorf("%w: %s", ErrAppClosed, a.name)
	}
	appEnd, _, node, err := a.CreateChannel(prof.ChannelConfig(), target)
	if err != nil {
		return nil, err
	}
	credits, err := node.NewChild("syscall-credits:"+target.BindName, nil)
	if err != nil {
		node.Close()
		return nil, err
	}
	credits.SetLimit(syscall.QuotaSyscalls, int64(prof.CreditLimit()))
	svc := syscall.NewService(a.rt.VFS(), prof)
	svc.Attach(appEnd)
	return &SyscallPlane{Service: svc, Credits: credits}, nil
}
