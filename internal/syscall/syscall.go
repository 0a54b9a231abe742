// Package syscall is HYDRA's reverse-RPC subsystem: device-initiated host
// syscalls. The paper's invocation machinery (§3.1) only flows host→device;
// following GPU System Calls (Veselý et al.), this package lets an Offcode
// send the host a log line or read the host clock — the traffic the
// simulated Offcodes actually issue — and makes that practical by
// aggregating requests with the channel layer's Batch/Coalesce machinery
// so N syscalls ride one gather DMA and one host interrupt.
//
// The shape is a classic split:
//
//   - the device side (Issuer) marshals syscalls with the internal/call
//     codec, charges an in-flight credit against a resource.Node quota,
//     and tracks the pending table — which it can checkpoint and restore
//     so in-flight syscalls survive a hot-swap or failover with
//     exactly-once completion;
//   - the host side (Service) lands requests in a hostos.WorkerPool
//     dispatcher, executes them with per-op kernel cycle costs (log lines
//     are counted on the host's hostos.VFS ledger), and replies through
//     the same channel (replies batch too — the accumulator is per source
//     endpoint).
//
// Three dispatch modes: ModeSync (caller issues one call and waits),
// ModeAsync (up to the credit limit outstanding, completions via the
// reply ring), and ModeFireForget (no completion at all). The mode rides
// in the top bits of the call id so the host knows whether to reply.
//
// Once warm, the round trip allocates nothing: both sides keep pooled
// per-call records, encode and decode the fixed-shape requests and
// replies without boxing a value, and the issuer hands every continuation
// the same issuer-owned Completion. A *Completion is therefore valid only
// during the continuation; keep a copy, not the pointer.
package syscall

import (
	"reflect"

	"hydra/internal/channel"
	"hydra/internal/guid"
	"hydra/internal/sim"
)

// IfaceGUID identifies the host-syscall interface on the wire; requests
// are call.Call values against it, completions are call.Reply values.
const IfaceGUID guid.GUID = 0x5C411

// QuotaSyscalls is the resource.Node quota kind charged one unit per
// in-flight syscall by an Issuer and released at completion. Sessions cap
// an Offcode's outstanding syscalls by SetLimit on its node.
const QuotaSyscalls = "syscalls"

// Op identifies one host syscall.
type Op uint8

// The syscall surface: a device log line and the host clock. The values
// are stable because Issuer.Checkpoint records the op byte; 1–7 are
// reserved, and Restore rejects a checkpoint entry carrying one.
const (
	OpLog   Op = 8
	OpClock Op = 9
)

func (o Op) String() string {
	switch o {
	case OpLog:
		return "log"
	case OpClock:
		return "clock"
	}
	return "op?"
}

// opByName maps a wire method name back to its Op.
func opByName(s string) (Op, bool) {
	for _, o := range []Op{OpLog, OpClock} {
		if o.String() == s {
			return o, true
		}
	}
	return 0, false
}

// Mode selects how a syscall's completion is handled.
type Mode uint8

const (
	// ModeSync is the blocking shape: the caller issues one call and
	// continues only from its completion continuation.
	ModeSync Mode = iota
	// ModeAsync allows up to the credit limit outstanding; completions
	// arrive on the reply ring in host execution order.
	ModeAsync
	// ModeFireForget expects no completion: the host executes and drops
	// the reply. The credit is released as soon as the request is handed
	// to the channel.
	ModeFireForget
)

func (m Mode) String() string {
	switch m {
	case ModeSync:
		return "sync"
	case ModeAsync:
		return "async"
	case ModeFireForget:
		return "ff"
	}
	return "mode?"
}

// Call ids carry the mode in their top two bits so the host service can
// tell whether to send a completion without any side table.
const (
	idModeShift = 62
	idSeqMask   = (uint64(1) << idModeShift) - 1
)

func packID(seq uint64, m Mode) uint64 { return seq&idSeqMask | uint64(m)<<idModeShift }
func idMode(id uint64) Mode            { return Mode(id >> idModeShift) }
func idSeq(id uint64) uint64           { return id & idSeqMask }

// Profile sizes one device's syscall plumbing: the channel geometry that
// carries requests and completions, the in-flight credit limit, and the
// width of the host dispatcher pool.
type Profile struct {
	Batch       int      // requests/completions per gather DMA (channel.Config.Batch)
	Coalesce    sim.Time // interrupt coalesce window (0 = flush at end of instant)
	Credits     int      // max in-flight syscalls per issuer, 1 to 4096 (the reply cache)
	Workers     int      // host dispatcher pool width
	RingEntries int      // descriptor ring depth (defaults to 256)
}

// maxMessage bounds one marshaled request or reply on a syscall channel.
const maxMessage = 4096

// BlockingProfile is the degenerate per-call shape: no batching, no
// coalescing, one call in flight, one dispatcher — the baseline the
// batched profiles are measured against.
func BlockingProfile() Profile {
	return Profile{Batch: 1, Coalesce: 0, Credits: 1, Workers: 1}
}

func (p Profile) withDefaults() Profile {
	if p.Batch < 1 {
		p.Batch = 1
	}
	p.Credits = min(max(p.Credits, 1), replyCacheSize)
	if p.Workers < 1 {
		p.Workers = 1
	}
	if p.RingEntries == 0 {
		p.RingEntries = 256
	}
	return p
}

// CreditLimit is the in-flight credit limit an issuer with this profile
// enforces: Credits, raised to at least 1 and capped at the reply cache's
// 4096 slots, beyond which the host could no longer deduplicate a
// reissued call.
func (p Profile) CreditLimit() int { return p.withDefaults().Credits }

// ChannelConfig derives the syscall channel's configuration, batched and
// coalesced per the profile (channels are reliable, so syscalls are never
// dropped on ring overrun).
func (p Profile) ChannelConfig() channel.Config {
	p = p.withDefaults()
	return channel.Config{
		RingEntries: p.RingEntries,
		MaxMessage:  maxMessage,
		Batch:       p.Batch,
		Coalesce:    p.Coalesce,
	}
}

// Stats is the merged issue/dispatch accounting surface. The device-side
// fields are filled by Issuer, the host-side ones by Service; Add merges
// the two halves into one view.
type Stats struct {
	// Device side.
	Issued       uint64 // syscalls accepted by Issue
	Completed    uint64 // completions delivered to a continuation
	Errors       uint64 // completions carrying a host error
	FireForget   uint64 // subset of Issued that expected no completion
	CreditDenied uint64 // issues rejected by the credit quota
	Reissued     uint64 // in-flight calls re-sent after a Restore
	Orphaned     uint64 // completions with no pending entry (dropped)

	// Host side.
	Dispatched  uint64 // requests decoded off the channel
	Executed    uint64 // requests actually run against the VFS
	Deduped     uint64 // duplicate requests answered from the reply cache
	RepliesSent uint64 // completions written back toward the device
}

// Add accumulates other into s, merging device- and host-side halves.
func (s *Stats) Add(other Stats) {
	sv := reflect.ValueOf(s).Elem()
	ov := reflect.ValueOf(other)
	for i := 0; i < sv.NumField(); i++ {
		sv.Field(i).SetUint(sv.Field(i).Uint() + ov.Field(i).Uint())
	}
}

// Trace record names (obs.CatSyscall). Per-call ids ride in the record
// arg; the end-to-end span syscall.call.<op> runs issue→complete on the
// device shard, and syscall.exec.<mode> is the host-side service span.
const (
	trIssue    = "syscall.issue"
	trDispatch = "syscall.dispatch"
	trComplete = "syscall.complete"
	trReissue  = "syscall.reissue"
	trDedup    = "syscall.dedup"
	trOrphan   = "syscall.orphan"
	trExec     = "syscall.exec." // + mode
	trCallSpan = "syscall.call." // + op
)

// Completion is what a syscall continuation receives. It is owned by the
// Issuer and valid only during the continuation call.
type Completion struct {
	ID     uint64
	Op     Op
	Clock  sim.Time // OpClock's result: the host clock when it executed
	Err    string   // empty on success
	Issued sim.Time
	Done   sim.Time
}

// Latency is the issue→completion span.
func (c *Completion) Latency() sim.Time { return c.Done - c.Issued }
