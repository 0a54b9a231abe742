package obs

import (
	"bytes"
	"reflect"
	"testing"

	"hydra/internal/sim"
)

// FuzzReadChrome checks the hydra-trace decoder: malformed input returns
// an error and never panics, and whatever it accepts writes back out and
// reads back as the same records, labels and drop count.
func FuzzReadChrome(f *testing.F) {
	tr := NewTracer(Config{Mask: MaskEverything, Cap: 8})
	for i, label := range []string{"host0", "nic0"} {
		e := sim.NewEngine(int64(i + 1))
		s := tr.Attach(e, label)
		e.Schedule(123, func() {
			s.Instant(CatChannel, "chan.send", 7)
			h := s.Begin(CatHost, "host.run", -2)
			e.Schedule(456, func() { s.End(h) })
		})
		e.RunAll()
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadChrome(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := writeChrome(&out, got.Records, got.Labels, got.Dropped); err != nil {
			t.Fatalf("writing an accepted trace: %v", err)
		}
		again, err := ReadChrome(&out)
		if err != nil {
			t.Fatalf("reading back an accepted trace: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v", again, got)
		}
	})
}
