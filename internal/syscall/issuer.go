package syscall

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"hydra/internal/call"
	"hydra/internal/channel"
	"hydra/internal/device"
	"hydra/internal/obs"
	"hydra/internal/resource"
	"hydra/internal/sim"
)

// issueCycles is the firmware cost of marshaling a request and posting it
// to the syscall ring, charged on the device before the channel's own
// transmit costs.
const issueCycles = 300

// ErrNoCredits is returned by Issue when the in-flight credit limit is
// reached and no resource.Node is attached to say so more precisely.
var ErrNoCredits = errors.New("syscall: no issue credits available")

// ErrDetached is returned by Issue before Attach connects an endpoint.
var ErrDetached = errors.New("syscall: issuer not attached to a channel")

// ErrSealed is returned by Issue after Checkpoint: the snapshot fixed the
// sequence counter, so new calls on this instance would reuse the ids its
// successor continues from — the host would dedup them as replays and
// silently drop their effects. New work belongs to the restored issuer.
var ErrSealed = errors.New("syscall: issuer sealed by checkpoint")

// pendingCall is one issued syscall. Records are pooled per issuer with
// their send step bound once: a record returns to the pool when its
// completion is delivered, or, for fire-and-forget, once it is sent.
type pendingCall struct {
	iss      *Issuer
	op       Op
	mode     Mode
	issued   sim.Time
	k        func(*Completion)
	wire     []byte // retained while pending, for checkpoint + reissue
	restored bool   // entry rebuilt by Restore; completion routes to the default handler
	queued   bool   // a send is queued on the device
	sendFn   func() // p.send, bound once
}

func (i *Issuer) newCall() *pendingCall {
	p := &pendingCall{iss: i}
	p.sendFn = p.send
	return p
}

func (i *Issuer) getCall() *pendingCall {
	if n := len(i.callFree); n > 0 {
		p := i.callFree[n-1]
		i.callFree[n-1] = nil
		i.callFree = i.callFree[:n-1]
		return p
	}
	return i.newCall()
}

// putCall recycles a finished record, keeping its wire buffer. A record
// whose send is still queued is left to the collector instead: a
// completion can beat its own send (the original request of a reissued
// restore was already in the air), and that send must still write this
// request, not a later call's.
func (i *Issuer) putCall(p *pendingCall) {
	if p.queued {
		return
	}
	p.k = nil
	if len(i.callFree) < 256 {
		i.callFree = append(i.callFree, p)
	}
}

// post queues the record's send behind issueCycles of device work.
func (p *pendingCall) post() {
	p.queued = true
	p.iss.dev.Exec(issueCycles, p.sendFn)
}

// send writes the marshaled request to the syscall ring.
func (p *pendingCall) send() {
	i := p.iss
	p.queued = false
	_ = i.end.Write(p.wire)
	if p.mode == ModeFireForget {
		i.releaseCredit()
		i.putCall(p)
	}
}

// Issuer is the device side of the syscall subsystem: it marshals typed
// host syscalls, charges in-flight credits, tracks the pending table, and
// delivers completions to continuations. The pending table checkpoints
// and restores, so a hot-swapped Offcode's in-flight syscalls complete
// exactly once on the replacement instance.
type Issuer struct {
	dev  *device.Device
	eng  *sim.Engine
	end  *channel.Endpoint
	res  *resource.Node // credit quota charged beside prof.Credits; may be nil
	prof Profile
	tr   *obs.Shard

	nextSeq  uint64
	pending  pendingTable // calls awaiting a completion, in issue order
	inFlight int
	sealed   bool
	defaultK func(*Completion)
	stats    Stats
	lats     [][]sim.Time // completion latencies, issue→done, in latChunk runs
	callFree []*pendingCall

	// rep and comp are decoded into and handed to each continuation in
	// turn: a *Completion is valid only during the call to k.
	rep  call.Reply
	comp Completion
}

// NewIssuer builds an issuer for the device. The profile's Credits bound
// its in-flight calls; res, when non-nil, is also charged
// QuotaSyscalls(1) per in-flight call — the per-Offcode credit quota.
func NewIssuer(dev *device.Device, prof Profile, res *resource.Node) *Issuer {
	eng := dev.Engine()
	return &Issuer{
		dev:     dev,
		eng:     eng,
		res:     res,
		prof:    prof.withDefaults(),
		tr:      obs.ForCat(eng, obs.CatSyscall),
		nextSeq: 1,
	}
}

// Attach connects the issuer to its device-side channel endpoint and
// installs the completion handler. Calls restored by a preceding Restore
// are re-sent here, in ascending sequence order (the host service dedups
// re-executions), so an in-flight syscall survives the swap no matter
// whether its original request, its completion, or neither was in the air.
func (i *Issuer) Attach(end *channel.Endpoint) {
	i.end = end
	end.InstallCallHandler(i.onCompletion)
	i.pending.each(func(id uint64, p *pendingCall) {
		if !p.restored || p.wire == nil {
			return
		}
		i.stats.Reissued++
		if i.tr.On() {
			i.tr.Instant(obs.CatSyscall, trReissue, int64(idSeq(id)))
		}
		p.post()
	})
}

// SetDefaultHandler installs the continuation for completions of restored
// in-flight calls, whose original Go closures did not survive the swap.
func (i *Issuer) SetDefaultHandler(k func(*Completion)) { i.defaultK = k }

// InFlight reports calls issued but not yet completed.
func (i *Issuer) InFlight() int { return i.inFlight }

// Stats returns the device-side accounting.
func (i *Issuer) Stats() Stats { return i.stats }

// latChunk is the length of one run of recorded latencies: recording
// fills fixed runs instead of regrowing one slice, so it never copies.
const latChunk = 1024

// Latencies returns the issue→completion spans recorded so far, in
// completion order, as a fresh slice.
func (i *Issuer) Latencies() []sim.Time { return slices.Concat(i.lats...) }

func (i *Issuer) recordLatency(l sim.Time) {
	n := len(i.lats)
	if n == 0 || len(i.lats[n-1]) == latChunk {
		i.lats = append(i.lats, make([]sim.Time, 0, latChunk))
		n++
	}
	i.lats[n-1] = append(i.lats[n-1], l)
}

// chargeCredits takes n in-flight credits, all or none. An attached node
// is charged first and its refusal returned as is; the profile's Credits,
// which the reply cache caps, bound the issuer with or without one.
func (i *Issuer) chargeCredits(n int) error {
	if i.res != nil {
		if err := i.res.Charge(QuotaSyscalls, int64(n)); err != nil {
			return err
		}
	}
	if i.inFlight+n > i.prof.Credits {
		if i.res != nil {
			i.res.Release(QuotaSyscalls, int64(n))
		}
		return ErrNoCredits
	}
	i.inFlight += n
	return nil
}

func (i *Issuer) releaseCredit() {
	i.inFlight--
	if i.res != nil {
		i.res.Release(QuotaSyscalls, 1)
	}
}

// Issue marshals one syscall and posts it to the host. k receives the
// completion (nil k is allowed for ModeFireForget). The *Completion is
// valid only during the call to k: the issuer reuses it for the next
// completion, so k copies out what it keeps. The credit is held until
// completion — or, for fire-and-forget, until the request is handed to
// the channel.
func (i *Issuer) Issue(op Op, mode Mode, args []any, k func(*Completion)) error {
	p, id, err := i.begin(mode)
	if err != nil {
		return err
	}
	wire, err := call.AppendCall(p.wire[:0], &call.Call{Iface: IfaceGUID, Method: op.String(), Args: args, ReturnDesc: id})
	return i.post(p, id, op, mode, k, wire, err)
}

// Log sends one log line to the host (typically fire-and-forget). It
// encodes the line straight onto the wire, so issuing it boxes nothing.
func (i *Issuer) Log(msg string, mode Mode) error {
	p, id, err := i.begin(mode)
	if err != nil {
		return err
	}
	wire, err := call.AppendCallHead(p.wire[:0], IfaceGUID, OpLog.String(), id, 1)
	if err == nil {
		wire, err = call.AppendString(wire, msg)
	}
	return i.post(p, id, OpLog, mode, nil, wire, err)
}

// begin takes a credit and a sequence number for one call and a record
// to carry it.
func (i *Issuer) begin(mode Mode) (*pendingCall, uint64, error) {
	if i.end == nil {
		return nil, 0, ErrDetached
	}
	if i.sealed {
		return nil, 0, ErrSealed
	}
	if err := i.chargeCredits(1); err != nil {
		i.stats.CreditDenied++
		return nil, 0, err
	}
	id := packID(i.nextSeq, mode)
	i.nextSeq++
	return i.getCall(), id, nil
}

// post records the call that begin started and queues its send. When
// its request failed to marshal, post returns the record and the credit
// instead.
func (i *Issuer) post(p *pendingCall, id uint64, op Op, mode Mode, k func(*Completion), wire []byte, err error) error {
	if err != nil {
		i.putCall(p)
		i.releaseCredit()
		return err
	}
	p.op, p.mode, p.issued, p.k, p.wire = op, mode, i.eng.Now(), k, wire
	i.stats.Issued++
	if i.tr.On() {
		i.tr.Instant(obs.CatSyscall, trIssue, int64(idSeq(id)))
	}
	if mode == ModeFireForget {
		i.stats.FireForget++
	} else {
		i.pending.push(id, p)
	}
	p.post()
	return nil
}

// onCompletion handles a reply payload arriving on the device endpoint.
func (i *Issuer) onCompletion(data []byte) {
	rep := &i.rep
	vals, n, err := call.UnmarshalReplyHeadInto(data, rep)
	if err != nil {
		return // not a completion (e.g. unrelated traffic on a shared channel)
	}
	var clock int64
	if n > 0 {
		if clock, _, err = call.ReadInt64(vals); err != nil {
			return // a completion carries at most a clock reading
		}
	}
	id := rep.ReturnDesc
	p := i.pending.take(id)
	if p == nil {
		// Already completed once — a duplicate from reissue-after-restore.
		i.stats.Orphaned++
		if i.tr.On() {
			i.tr.Instant(obs.CatSyscall, trOrphan, int64(idSeq(id)))
		}
		return
	}
	i.releaseCredit()
	now := i.eng.Now()
	op, issued, k, restored := p.op, p.issued, p.k, p.restored
	i.putCall(p)
	c := &i.comp
	*c = Completion{ID: id, Op: op, Clock: sim.Time(clock), Err: rep.Err, Issued: issued, Done: now}
	i.stats.Completed++
	if rep.Err != "" {
		i.stats.Errors++
	}
	i.recordLatency(c.Latency())
	if i.tr.On() {
		i.tr.Instant(obs.CatSyscall, trComplete, int64(idSeq(id)))
		// End-to-end per-call span on the device shard: issue→complete.
		i.tr.Complete(obs.CatSyscall, trCallSpan+op.String(), issued, now-issued, int64(idSeq(id)))
	}
	switch {
	case k != nil:
		k(c)
	case restored && i.defaultK != nil:
		i.defaultK(c)
	}
}

// --- checkpoint/restore of in-flight syscalls ---

const ckptVersion = 1

// Checkpoint serializes the pending table: next sequence number plus, for
// every in-flight call, its id, issue time, and marshaled request. An
// Offcode owning an issuer folds these bytes into its own Checkpoint.
// Checkpointing seals the issuer — further Issues fail with ErrSealed,
// because the successor restored from this snapshot continues the sequence
// space (see ErrSealed).
func (i *Issuer) Checkpoint() []byte {
	i.sealed = true
	b := []byte{ckptVersion}
	b = binary.LittleEndian.AppendUint64(b, i.nextSeq)
	b = binary.LittleEndian.AppendUint32(b, uint32(i.pending.npend))
	i.pending.each(func(id uint64, p *pendingCall) {
		b = binary.LittleEndian.AppendUint64(b, id)
		b = binary.LittleEndian.AppendUint64(b, uint64(p.issued))
		b = append(b, byte(p.op))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(p.wire)))
		b = append(b, p.wire...)
	})
	return b
}

// ckptEntryHeader is one checkpoint entry's fixed part: id, issue time,
// op and wire length.
const ckptEntryHeader = 8 + 8 + 1 + 4

// Restore rebuilds the pending table on a fresh issuer. Continuation
// closures cannot cross a swap, so restored calls complete through the
// default handler; credits are re-charged so the quota stays truthful.
// Restore validates the whole checkpoint before applying any of it: on
// error the issuer is unchanged.
func (i *Issuer) Restore(b []byte) error {
	if len(b) < 13 || b[0] != ckptVersion {
		return fmt.Errorf("syscall: bad checkpoint (len %d)", len(b))
	}
	nextSeq := binary.LittleEndian.Uint64(b[1:])
	n := int(binary.LittleEndian.Uint32(b[9:]))
	rest := b[13:]
	last := i.pending.last()
	if i.pending.npend > 0 && nextSeq <= last {
		return fmt.Errorf("syscall: next sequence %d not past pending sequence %d", nextSeq, last)
	}
	ids := make([]uint64, 0, min(n, len(rest)/ckptEntryHeader))
	calls := make([]*pendingCall, 0, cap(ids))
	for j := 0; j < n; j++ {
		if len(rest) < ckptEntryHeader {
			return fmt.Errorf("syscall: truncated checkpoint entry %d", j)
		}
		id := binary.LittleEndian.Uint64(rest)
		issued := sim.Time(binary.LittleEndian.Uint64(rest[8:]))
		op := Op(rest[16])
		wl := int(binary.LittleEndian.Uint32(rest[17:]))
		rest = rest[ckptEntryHeader:]
		if len(rest) < wl {
			return fmt.Errorf("syscall: truncated checkpoint wire %d", j)
		}
		wire := rest[:wl]
		rest = rest[wl:]
		prev := last
		if j > 0 {
			prev = idSeq(ids[j-1])
		}
		if err := checkRestored(id, op, wire, prev, nextSeq); err != nil {
			return fmt.Errorf("syscall: checkpoint entry %d: %w", j, err)
		}
		ids = append(ids, id)
		p := i.newCall()
		p.op, p.mode, p.issued, p.wire, p.restored = op, idMode(id), issued, append([]byte(nil), wire...), true
		calls = append(calls, p)
	}
	if len(rest) != 0 {
		return fmt.Errorf("syscall: %d trailing bytes after checkpoint", len(rest))
	}
	if len(calls) > 0 {
		if err := i.chargeCredits(len(calls)); err != nil {
			return fmt.Errorf("syscall: restore over credit limit: %w", err)
		}
	}
	i.nextSeq = nextSeq
	for j, id := range ids {
		i.pending.push(id, calls[j])
	}
	return nil
}

// checkRestored validates one checkpointed call: sequences strictly
// ascend past every call already pending (so no id repeats and the
// pending table stays in issue order) and stay below nextSeq, the mode
// expects a completion, and the marshaled request is the op's call under
// that id — anything else would leave an entry no completion can ever
// retire, holding its credit forever.
func checkRestored(id uint64, op Op, wire []byte, prevSeq, nextSeq uint64) error {
	seq := idSeq(id)
	switch {
	case seq <= prevSeq:
		return fmt.Errorf("sequence %d does not ascend past %d", seq, prevSeq)
	case seq >= nextSeq:
		return fmt.Errorf("sequence %d not below next sequence %d", seq, nextSeq)
	case idMode(id) != ModeSync && idMode(id) != ModeAsync:
		return fmt.Errorf("sequence %d: mode %v expects no completion", seq, idMode(id))
	}
	c, err := call.Unmarshal(wire)
	if err != nil {
		return fmt.Errorf("sequence %d: %w", seq, err)
	}
	if c.Iface != IfaceGUID || c.ReturnDesc != id || c.Method != op.String() || op.String() == "op?" {
		return fmt.Errorf("sequence %d: request is not %v call %#x", seq, op, id)
	}
	return nil
}
