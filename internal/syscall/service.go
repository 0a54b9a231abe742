package syscall

import (
	"fmt"

	"hydra/internal/call"
	"hydra/internal/channel"
	"hydra/internal/hostos"
	"hydra/internal/obs"
	"hydra/internal/sim"
)

// Per-op base kernel cycles charged by the dispatcher on its worker task,
// on top of the channel's amortized interrupt/delivery cost. Reads and
// writes additionally pay the machine's modeled copy cost for the payload.
var opBaseCycles = [numOps]uint64{
	OpOpen:  1200,
	OpRead:  900,
	OpWrite: 900,
	OpClose: 400,
	OpSend:  700,
	OpMap:   1500,
	OpUnmap: 800,
	OpLog:   250,
	OpClock: 120,
}

// replyCacheSize bounds the at-most-once reply cache. It only needs to
// cover the in-flight window (the credit limit) with slack for a swap's
// replayed traffic, not the whole run.
const replyCacheSize = 4096

// Service is the host side of the syscall subsystem: it decodes requests
// off the channel, lands them in a hostos.WorkerPool dispatcher, executes
// them against the VFS with per-op kernel cycle costs, and writes
// completions back (the channel batches those too). A bounded reply cache
// makes execution at-most-once: a request id seen before is answered from
// the cache, so reissue-after-restore never double-executes.
type Service struct {
	m    *hostos.Machine
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
		m:          m,
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

// VFS returns the surface this service executes against.
func (s *Service) VFS() *hostos.VFS { return s.vfs }

// Stats returns the host-side accounting.
func (s *Service) Stats() Stats { return s.stats }

func (s *Service) onRequest(data []byte) {
	c, err := call.Unmarshal(data)
	if err != nil || c.Iface != IfaceGUID {
		return // not a syscall request; ignore unrelated traffic
	}
	op, ok := OpByName(c.Method)
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
		t.Syscall(s.cycles(op, args), func() {
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

// cycles is the kernel cost of servicing op: base plus the copy cost of
// any payload moved between host and device buffers.
func (s *Service) cycles(op Op, args []any) uint64 {
	cy := opBaseCycles[op]
	switch op {
	case OpRead:
		if len(args) == 3 {
			if n, ok := args[2].(int64); ok {
				cy += s.m.CopyCycles(int(n))
			}
		}
	case OpWrite:
		if len(args) == 3 {
			if data, ok := args[2].([]byte); ok {
				cy += s.m.CopyCycles(len(data))
			}
		}
	case OpSend:
		if len(args) == 2 {
			if n, ok := args[1].(int64); ok {
				cy += s.m.CopyCycles(int(n))
			}
		}
	}
	return cy
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

// execute runs one decoded syscall against the VFS.
func (s *Service) execute(op Op, args []any) ([]any, error) {
	switch op {
	case OpOpen:
		if len(args) != 2 {
			return nil, badArgs(op)
		}
		path, ok1 := args[0].(string)
		create, ok2 := args[1].(bool)
		if !ok1 || !ok2 {
			return nil, badArgs(op)
		}
		fd, err := s.vfs.Open(path, create)
		if err != nil {
			return nil, err
		}
		return []any{int64(fd)}, nil
	case OpRead:
		fd, off, count, ok := threeInts(args)
		if !ok {
			return nil, badArgs(op)
		}
		data, err := s.vfs.Read(int32(fd), off, int(count))
		if err != nil {
			return nil, err
		}
		return []any{data}, nil
	case OpWrite:
		if len(args) != 3 {
			return nil, badArgs(op)
		}
		fd, ok1 := args[0].(int64)
		off, ok2 := args[1].(int64)
		data, ok3 := args[2].([]byte)
		if !ok1 || !ok2 || !ok3 {
			return nil, badArgs(op)
		}
		n, err := s.vfs.Write(int32(fd), off, data)
		if err != nil {
			return nil, err
		}
		return []any{int64(n)}, nil
	case OpClose:
		if len(args) != 1 {
			return nil, badArgs(op)
		}
		fd, ok := args[0].(int64)
		if !ok {
			return nil, badArgs(op)
		}
		return nil, s.vfs.CloseFD(int32(fd))
	case OpSend:
		if len(args) != 2 {
			return nil, badArgs(op)
		}
		dst, ok1 := args[0].(string)
		n, ok2 := args[1].(int64)
		if !ok1 || !ok2 {
			return nil, badArgs(op)
		}
		s.vfs.NetSend(dst, int(n))
		return nil, nil
	case OpMap:
		if len(args) != 1 {
			return nil, badArgs(op)
		}
		size, ok := args[0].(int64)
		if !ok || size < 0 {
			return nil, badArgs(op)
		}
		return []any{s.vfs.Map(int(size))}, nil
	case OpUnmap:
		if len(args) != 1 {
			return nil, badArgs(op)
		}
		addr, ok := args[0].(uint64)
		if !ok {
			return nil, badArgs(op)
		}
		return nil, s.vfs.Unmap(addr)
	case OpLog:
		if len(args) != 1 {
			return nil, badArgs(op)
		}
		if _, ok := args[0].(string); !ok {
			return nil, badArgs(op)
		}
		s.vfs.Log()
		return nil, nil
	case OpClock:
		return []any{int64(s.eng.Now())}, nil
	default:
		return nil, fmt.Errorf("syscall: op %d not implemented", op)
	}
}

func threeInts(args []any) (a, b, c int64, ok bool) {
	if len(args) != 3 {
		return 0, 0, 0, false
	}
	a, ok1 := args[0].(int64)
	b, ok2 := args[1].(int64)
	c, ok3 := args[2].(int64)
	return a, b, c, ok1 && ok2 && ok3
}
