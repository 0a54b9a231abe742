package syscall

import (
	"fmt"

	"hydra/internal/call"
	"hydra/internal/channel"
	"hydra/internal/hostos"
	"hydra/internal/obs"
	"hydra/internal/sim"
)

// Base kernel cycles the dispatcher charges per op on its worker task, on
// top of the channel's amortized interrupt/delivery cost.
const (
	logCycles   = 250
	clockCycles = 120
)

// replyCacheSize bounds the at-most-once reply cache. It only needs to
// cover the in-flight window (the credit limit) with slack for a swap's
// replayed traffic, not the whole run.
const replyCacheSize = 4096

// Service is the host side of the syscall subsystem: it decodes requests
// off the channel, lands them in a hostos.WorkerPool dispatcher, executes
// them with per-op kernel cycle costs (log lines land on the VFS ledger),
// and writes completions back (the channel batches those too). A bounded
// reply cache makes execution at-most-once: a request id seen before is
// answered from the cache, so reissue-after-restore never double-executes.
type Service struct {
	eng  *sim.Engine
	vfs  *hostos.VFS
	pool *hostos.WorkerPool
	end  *channel.Endpoint
	tr   *obs.Shard

	replyCache map[uint64][]byte
	cacheOrder []uint64        // FIFO eviction ring over replyCache keys
	executing  map[uint64]bool // ids submitted to the pool, not yet finished
	stats      Stats
}

// NewService builds a dispatcher over the VFS's machine with the
// profile's worker-pool width.
func NewService(vfs *hostos.VFS, prof Profile) *Service {
	prof = prof.withDefaults()
	m := vfs.Machine()
	return &Service{
		eng:        m.Engine(),
		vfs:        vfs,
		pool:       hostos.NewWorkerPool(m, "syscalld", prof.Workers),
		tr:         obs.ForCat(m.Engine(), obs.CatSyscall),
		replyCache: make(map[uint64][]byte),
		executing:  make(map[uint64]bool),
	}
}

// Attach connects the service to the host-side endpoint of the syscall
// channel and starts consuming requests.
func (s *Service) Attach(end *channel.Endpoint) {
	s.end = end
	end.InstallCallHandler(s.onRequest)
}

// Stats returns the host-side accounting.
func (s *Service) Stats() Stats { return s.stats }

func (s *Service) onRequest(data []byte) {
	c, err := call.Unmarshal(data)
	if err != nil || c.Iface != IfaceGUID {
		return // not a syscall request; ignore unrelated traffic
	}
	op, ok := opByName(c.Method)
	if !ok {
		s.reply(c.ReturnDesc, &call.Reply{ReturnDesc: c.ReturnDesc, Err: "unknown syscall " + c.Method})
		return
	}
	id := c.ReturnDesc
	s.stats.Dispatched++
	if s.tr.On() {
		s.tr.Instant(obs.CatSyscall, trDispatch, int64(idSeq(id)))
	}
	if cached, ok := s.replyCache[id]; ok {
		// Duplicate (reissue after a swap): answer from the cache without
		// re-executing, preserving exactly-once side effects.
		s.stats.Deduped++
		if s.tr.On() {
			s.tr.Instant(obs.CatSyscall, trDedup, int64(idSeq(id)))
		}
		if idMode(id) != ModeFireForget && cached != nil {
			s.stats.RepliesSent++
			_ = s.end.Write(cached)
		}
		return
	}
	if s.executing[id] {
		// Duplicate of a call still in the dispatcher: the original's
		// reply is on its way, so this copy is dropped outright.
		s.stats.Deduped++
		if s.tr.On() {
			s.tr.Instant(obs.CatSyscall, trDedup, int64(idSeq(id)))
		}
		return
	}
	s.executing[id] = true
	args := c.Args
	s.pool.Submit(func(t *hostos.Task, done func()) {
		start := s.eng.Now()
		t.Syscall(s.cycles(op), func() {
			results, err := s.execute(op, args)
			rep := &call.Reply{ReturnDesc: id, Results: results}
			if err != nil {
				rep.Err = err.Error()
			}
			s.stats.Executed++
			if s.tr.On() {
				s.tr.Complete(obs.CatSyscall, trExec+idMode(id).String(), start, s.eng.Now()-start, int64(idSeq(id)))
			}
			s.finish(id, rep)
			done()
		})
	})
}

// cycles is the kernel cost of servicing op.
func (s *Service) cycles(op Op) uint64 {
	if op == OpLog {
		return logCycles
	}
	return clockCycles
}

// finish caches the reply for at-most-once dedup and sends the completion
// unless the call was fire-and-forget.
func (s *Service) finish(id uint64, rep *call.Reply) {
	delete(s.executing, id)
	wire, err := call.MarshalReply(rep)
	if err != nil {
		wire, _ = call.MarshalReply(&call.Reply{ReturnDesc: id, Err: "syscall: unmarshalable results"})
	}
	if len(s.cacheOrder) >= replyCacheSize {
		delete(s.replyCache, s.cacheOrder[0])
		s.cacheOrder = s.cacheOrder[1:]
	}
	s.replyCache[id] = wire
	s.cacheOrder = append(s.cacheOrder, id)
	if idMode(id) != ModeFireForget {
		s.stats.RepliesSent++
		_ = s.end.Write(wire)
	}
}

func (s *Service) reply(id uint64, rep *call.Reply) {
	if idMode(id) == ModeFireForget {
		return
	}
	wire, err := call.MarshalReply(rep)
	if err != nil {
		return
	}
	s.stats.RepliesSent++
	_ = s.end.Write(wire)
}

// badArgs is the uniform decode failure for a malformed argument vector.
func badArgs(op Op) error { return fmt.Errorf("syscall %s: bad argument vector", op) }

// execute runs one decoded syscall: the clock reads the engine, a log
// line (one string argument) counts on the VFS ledger.
func (s *Service) execute(op Op, args []any) ([]any, error) {
	if op == OpClock {
		return []any{int64(s.eng.Now())}, nil
	}
	if len(args) != 1 {
		return nil, badArgs(op)
	}
	if _, ok := args[0].(string); !ok {
		return nil, badArgs(op)
	}
	s.vfs.Log()
	return nil, nil
}
