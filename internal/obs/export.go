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
	"math"
	"os"
	"sort"

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
	recs := t.Merged()
	tr := chromeTrace{
		TraceEvents:     make([]chromeEvent, 0, len(recs)+len(t.shards)),
		DisplayTimeUnit: "ms",
		OtherData: map[string]any{
			"dropped": t.Dropped(),
			"records": len(recs),
		},
	}
	for _, s := range t.shards {
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: chromePid, Tid: int(s.idx),
			Args: map[string]any{"name": s.label},
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

// ReadChrome parses a trace written by WriteChrome.
func ReadChrome(rd io.Reader) (*ChromeTrace, error) {
	var tr chromeTrace
	if err := json.NewDecoder(rd).Decode(&tr); err != nil {
		return nil, fmt.Errorf("obs: parse chrome trace: %w", err)
	}
	out := &ChromeTrace{Labels: make(map[int32]string)}
	if d, ok := tr.OtherData["dropped"].(float64); ok {
		out.Dropped = uint64(d)
	}
	argNum := func(args map[string]any, key string) int64 {
		if v, ok := args[key].(float64); ok {
			return int64(v)
		}
		return 0
	}
	for _, ev := range tr.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				if name, ok := ev.Args["name"].(string); ok {
					out.Labels[int32(ev.Tid)] = name
				}
			}
		case "X", "i", "I":
			cat, _ := CatByName(ev.Cat)
			r := Record{
				Name:  ev.Name,
				At:    roundNS(ev.Ts),
				Arg:   argNum(ev.Args, "arg"),
				Seq:   uint64(argNum(ev.Args, "seq")),
				Shard: int32(ev.Tid),
				Cat:   cat,
			}
			if ev.Ph == "X" {
				r.Kind = KindSpan
				if ev.Dur != nil {
					r.Dur = roundNS(*ev.Dur)
				}
			} else {
				r.Kind = KindInstant
			}
			out.Records = append(out.Records, r)
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

// roundNS converts a microsecond ts back to integer virtual nanoseconds.
func roundNS(us float64) sim.Time { return sim.Time(math.Round(us * 1000)) }

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
