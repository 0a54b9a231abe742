package obs

// Exporter: Chrome trace-event JSON (loadable in Perfetto / chrome
// about:tracing), plus the matching reader used by
// cmd/hydra-trace. Virtual nanoseconds map to the trace format's
// microsecond ts/dur fields as exact thousandths, so a written trace
// reads back bit-identical.

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"

	"hydra/internal/sim"
)

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit,omitempty"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

const chromePid = 1

// WriteChrome writes the merged trace as Chrome trace-event JSON. Each
// shard becomes a named thread (tid = shard index); spans are "X"
// complete events, instants are thread-scoped "i" events. Record seq and
// arg ride in args so ReadChrome can reconstruct the records.
func (t *Tracer) WriteChrome(w io.Writer) error {
	labels := make(map[int32]string, len(t.shards))
	for _, s := range t.shards {
		labels[s.idx] = s.label
	}
	return writeChrome(w, t.Merged(), labels, t.Dropped())
}

// writeChrome writes recs as Chrome trace-event JSON after one named
// thread per label, in shard order.
func writeChrome(w io.Writer, recs []Record, labels map[int32]string, dropped uint64) error {
	tr := chromeTrace{
		TraceEvents:     make([]chromeEvent, 0, len(recs)+len(labels)),
		DisplayTimeUnit: "ms",
		OtherData: map[string]any{
			"dropped": dropped,
			"records": len(recs),
		},
	}
	for _, idx := range slices.Sorted(maps.Keys(labels)) {
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: chromePid, Tid: int(idx),
			Args: map[string]any{"name": labels[idx]},
		})
	}
	for i := range recs {
		r := &recs[i]
		ev := chromeEvent{
			Name: r.Name,
			Cat:  r.Cat.String(),
			Ts:   float64(r.At) / 1000,
			Pid:  chromePid,
			Tid:  int(r.Shard),
			Args: map[string]any{"arg": r.Arg, "seq": r.Seq},
		}
		if r.Kind == KindSpan {
			ev.Ph = "X"
			d := float64(r.Dur) / 1000
			ev.Dur = &d
		} else {
			ev.Ph = "i"
			ev.S = "t"
		}
		tr.TraceEvents = append(tr.TraceEvents, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&tr)
}

// ChromeTrace is a trace read back from the Chrome JSON exporter.
type ChromeTrace struct {
	// Records are the trace records in (At, shard, seq) order.
	Records []Record
	// Labels maps shard index → thread name.
	Labels map[int32]string
	// Dropped is the writer-side overwrite count.
	Dropped uint64
}

// ReadChrome parses a trace written by WriteChrome. It returns an error
// for an unknown category, a tid past int32, a seq or dropped count that
// is not a non-negative integer, an arg that is not an int64, and a ts or
// dur past maxTraceNS, so every trace it accepts writes back out
// unchanged.
func ReadChrome(rd io.Reader) (*ChromeTrace, error) {
	var tr chromeTrace
	dec := json.NewDecoder(rd)
	dec.UseNumber()
	if err := dec.Decode(&tr); err != nil {
		return nil, fmt.Errorf("obs: parse chrome trace: %w", err)
	}
	var err error
	out := &ChromeTrace{Labels: make(map[int32]string)}
	out.Dropped = number(tr.OtherData, "dropped", strconv.ParseUint, &err)
	if err != nil {
		return nil, fmt.Errorf("obs: chrome trace: %w", err)
	}
	for _, ev := range tr.TraceEvents {
		if ev.Tid != int(int32(ev.Tid)) {
			return nil, fmt.Errorf("obs: chrome trace event %q: tid %d is not a shard index", ev.Name, ev.Tid)
		}
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				if name, ok := ev.Args["name"].(string); ok {
					out.Labels[int32(ev.Tid)] = name
				}
			}
		case "X", "i", "I":
			cat, ok := CatByName(ev.Cat)
			if !ok {
				return nil, fmt.Errorf("obs: chrome trace event %q: unknown category %q", ev.Name, ev.Cat)
			}
			r := Record{
				Name:  ev.Name,
				At:    traceNS(ev.Ts, &err),
				Arg:   number(ev.Args, "arg", strconv.ParseInt, &err),
				Seq:   number(ev.Args, "seq", strconv.ParseUint, &err),
				Shard: int32(ev.Tid),
				Cat:   cat,
			}
			if ev.Ph == "X" {
				r.Kind = KindSpan
				if ev.Dur != nil {
					r.Dur = traceNS(*ev.Dur, &err)
				}
			} else {
				r.Kind = KindInstant
			}
			out.Records = append(out.Records, r)
		}
		if err != nil {
			return nil, fmt.Errorf("obs: chrome trace event %q: %w", ev.Name, err)
		}
	}
	sort.Slice(out.Records, func(i, j int) bool {
		a, b := &out.Records[i], &out.Records[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		return a.Seq < b.Seq
	})
	return out, nil
}

// maxTraceNS bounds |ts| and |dur| in nanoseconds (about 13 days): below
// it a count survives the trip to microseconds and back exactly.
const maxTraceNS = 1 << 50

// traceNS converts a microsecond ts or dur back to integer virtual
// nanoseconds, setting *err if it is out of range.
func traceNS(us float64, err *error) sim.Time {
	ns := math.Round(us * 1000)
	if !(math.Abs(ns) <= maxTraceNS) && *err == nil {
		*err = fmt.Errorf("time %vµs out of range", us)
	}
	return sim.Time(ns)
}

// number reads m[key], an integer that parse must accept, as 0 if the key
// is absent. It sets *err if the value is anything else.
func number[T int64 | uint64](m map[string]any, key string, parse func(string, int, int) (T, error), err *error) T {
	v, ok := m[key]
	if !ok {
		return 0
	}
	n, ok := v.(json.Number)
	if !ok {
		if *err == nil {
			*err = fmt.Errorf("%s %v is not a number", key, v)
		}
		return 0
	}
	x, perr := parse(string(n), 10, 64)
	if perr != nil && *err == nil {
		*err = fmt.Errorf("%s: %w", key, perr)
	}
	return x
}

// WriteFile exports the trace to path as Chrome trace-event JSON.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	err = t.WriteChrome(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadChromeFile is ReadChrome over a file path.
func ReadChromeFile(path string) (*ChromeTrace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	defer f.Close()
	return ReadChrome(f)
}
