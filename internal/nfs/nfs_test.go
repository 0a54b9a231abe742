package nfs

import (
	"bytes"
	"runtime"
	"testing"
	"testing/quick"

	"hydra/internal/netsim"
	"hydra/internal/sim"
)

func rig() (*sim.Engine, *Client, *Store) {
	eng := sim.NewEngine(9)
	net := netsim.New(eng, netsim.GigabitSwitched())
	nas := net.Attach("nas")
	host := net.Attach("host")
	store := NewStore()
	NewServer(eng, nas, store, DefaultServerConfig())
	c := NewClient(eng, host, "nas", 5000, 0)
	return eng, c, store
}

func TestLookupReadRoundTrip(t *testing.T) {
	eng, c, store := rig()
	store.Put("/movies/matrix.mpg", []byte("abcdefghij"))

	var got []byte
	var gotErr error
	c.Lookup("/movies/matrix.mpg", func(h uint64, err error) {
		if err != nil {
			gotErr = err
			return
		}
		c.Read(h, 2, 5, func(data []byte, err error) {
			got, gotErr = data, err
		})
	})
	eng.RunAll()
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if string(got) != "cdefg" {
		t.Fatalf("read = %q", got)
	}
}

func TestLookupMissing(t *testing.T) {
	eng, c, _ := rig()
	var gotErr error
	c.Lookup("/nope", func(h uint64, err error) { gotErr = err })
	eng.RunAll()
	if gotErr != ErrNoEnt {
		t.Fatalf("err = %v, want ErrNoEnt", gotErr)
	}
}

func TestCreateWriteReadBack(t *testing.T) {
	eng, c, store := rig()
	var finalErr error
	c.Create("/rec/show.mpg", func(h uint64, err error) {
		if err != nil {
			finalErr = err
			return
		}
		c.Write(h, 0, []byte("hello "), func(n int, err error) {
			if err != nil {
				finalErr = err
				return
			}
			c.Write(h, 6, []byte("world"), func(n int, err error) {
				finalErr = err
			})
		})
	})
	eng.RunAll()
	if finalErr != nil {
		t.Fatal(finalErr)
	}
	got, ok := store.Get("/rec/show.mpg")
	if !ok || string(got) != "hello world" {
		t.Fatalf("stored = %q (ok=%v)", got, ok)
	}
}

func TestWriteExtendsWithHole(t *testing.T) {
	eng, c, store := rig()
	c.Create("/f", func(h uint64, err error) {
		c.Write(h, 4, []byte("xy"), func(int, error) {})
	})
	eng.RunAll()
	got, _ := store.Get("/f")
	want := []byte{0, 0, 0, 0, 'x', 'y'}
	if !bytes.Equal(got, want) {
		t.Fatalf("stored = %v, want %v", got, want)
	}
}

func TestReadEOF(t *testing.T) {
	eng, c, store := rig()
	store.Put("/f", []byte("abc"))
	var eofData, shortData []byte
	c.Lookup("/f", func(h uint64, err error) {
		c.Read(h, 10, 5, func(d []byte, err error) { eofData = append([]byte{1}, d...) })
		c.Read(h, 2, 100, func(d []byte, err error) { shortData = d })
	})
	eng.RunAll()
	if len(eofData) != 1 {
		t.Fatalf("EOF read returned data: %v", eofData)
	}
	if string(shortData) != "c" {
		t.Fatalf("short read = %q", shortData)
	}
}

func TestStaleHandle(t *testing.T) {
	eng, c, _ := rig()
	var gotErr error
	c.Read(9999, 0, 10, func(d []byte, err error) { gotErr = err })
	eng.RunAll()
	if gotErr != ErrStale {
		t.Fatalf("err = %v, want ErrStale", gotErr)
	}
}

func TestGetAttr(t *testing.T) {
	eng, c, store := rig()
	store.Put("/f", make([]byte, 12345))
	var size int
	c.Lookup("/f", func(h uint64, err error) {
		c.GetAttr(h, func(s int, err error) { size = s })
	})
	eng.RunAll()
	if size != 12345 {
		t.Fatalf("size = %d", size)
	}
}

func TestMaxReadBounded(t *testing.T) {
	eng, c, store := rig()
	store.Put("/big", make([]byte, 1<<20))
	var n int
	c.Lookup("/big", func(h uint64, err error) {
		c.Read(h, 0, 1<<20, func(d []byte, err error) { n = len(d) })
	})
	eng.RunAll()
	if n != DefaultServerConfig().MaxRead {
		t.Fatalf("read %d bytes, want MaxRead cap %d", n, DefaultServerConfig().MaxRead)
	}
}

func TestConcurrentRequests(t *testing.T) {
	eng, c, store := rig()
	store.Put("/f", []byte("0123456789"))
	results := map[int]string{}
	c.Lookup("/f", func(h uint64, err error) {
		for i := 0; i < 5; i++ {
			i := i
			c.Read(h, uint64(i*2), 2, func(d []byte, err error) {
				results[i] = string(d)
			})
		}
	})
	eng.RunAll()
	for i := 0; i < 5; i++ {
		want := string([]byte{byte('0' + i*2), byte('0' + i*2 + 1)})
		if results[i] != want {
			t.Fatalf("result[%d] = %q, want %q (xid matching broken)", i, results[i], want)
		}
	}
}

func TestTimeoutOnLoss(t *testing.T) {
	eng := sim.NewEngine(9)
	net := netsim.New(eng, netsim.GigabitSwitched())
	net.Attach("nas") // no server bound: every request is lost
	host := net.Attach("host")
	c := NewClient(eng, host, "nas", 5000, 10*sim.Millisecond)
	var gotErr error
	c.Lookup("/f", func(h uint64, err error) { gotErr = err })
	eng.RunAll()
	if gotErr != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", gotErr)
	}
}

func TestServiceTimeModeled(t *testing.T) {
	eng, c, store := rig()
	store.Put("/f", make([]byte, 8192))
	var doneAt sim.Time
	c.Lookup("/f", func(h uint64, err error) {
		c.Read(h, 0, 8192, func(d []byte, err error) { doneAt = eng.Now() })
	})
	eng.RunAll()
	// Two RPCs, each at least BaseLatency; the read also pays PerByte.
	min := 2 * DefaultServerConfig().BaseLatency
	if doneAt < min {
		t.Fatalf("done at %v, faster than NAS service model (%v)", doneAt, min)
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	prop := func(op uint8, xid, handle, offset uint64, count uint32, name string, data []byte) bool {
		if len(name) > 1000 {
			name = name[:1000]
		}
		m := &message{
			op: Op(op), xid: xid, handle: handle, offset: offset,
			count: count, name: name, data: data,
		}
		var got message
		if err := decodeMessage(m.encode(nil), &got); err != nil {
			return false
		}
		return got.op == m.op && got.xid == m.xid && got.handle == m.handle &&
			got.offset == m.offset && got.count == m.count && got.name == m.name &&
			bytes.Equal(got.data, m.data)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeMalformed(t *testing.T) {
	for _, b := range [][]byte{nil, {1}, make([]byte, 10), append(make([]byte, 31), 0xff)} {
		if err := decodeMessage(b, &message{}); err == nil {
			t.Errorf("decode of %d bytes succeeded", len(b))
		}
	}
	// Truncated name/data length fields.
	m := &message{op: OpRead, name: "abcdef", data: []byte("xyz")}
	enc := m.encode(nil)
	if err := decodeMessage(enc[:len(enc)-2], &message{}); err == nil {
		t.Error("decode of truncated message succeeded")
	}
}

func TestStorePaths(t *testing.T) {
	s := NewStore()
	s.Put("/b", nil)
	s.Put("/a", []byte("x"))
	p := s.Paths()
	if len(p) != 2 || p[0] != "/a" || p[1] != "/b" {
		t.Fatalf("paths = %v", p)
	}
	if len(s.files["/a"]) != 1 || s.files["/nope"] != nil {
		t.Fatalf("sizes wrong")
	}
}

// nas builds a bare server whose handle method the tests call directly.
func nas() *Server {
	eng := sim.NewEngine(9)
	station := netsim.New(eng, netsim.GigabitSwitched()).Attach("nas")
	return NewServer(eng, station, NewStore(), DefaultServerConfig())
}

// TestAppendGrowthAmortized records a file 1 kB at a time, as the tivopc
// client does, and bounds the bytes allocated: regrowing the file by a
// fresh copy on every append would allocate about n²/2 kB.
func TestAppendGrowthAmortized(t *testing.T) {
	const chunk, n = 1 << 10, 512
	s := nas()
	h := s.handle(&message{op: OpCreate, name: "/rec"}).handle
	want := make([]byte, chunk*n)
	for i := range want {
		want[i] = byte(i*7 + i>>10)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for off := 0; off < len(want); off += chunk {
		rep := s.handle(&message{op: OpWrite, handle: h, offset: uint64(off), data: want[off : off+chunk]})
		if rep.status != StatusOK || rep.count != chunk {
			t.Fatalf("append at %d: status %d count %d", off, rep.status, rep.count)
		}
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8*uint64(len(want)) {
		t.Fatalf("%d appends allocated %d bytes, more than 8x the %d-byte file", n, alloc, len(want))
	}

	// An overwrite in the middle, then a write past the end leaving a hole.
	mid := []byte("overwritten in the middle")
	s.handle(&message{op: OpWrite, handle: h, offset: 100000, data: mid})
	copy(want[100000:], mid)
	tail := []byte("after the hole")
	s.handle(&message{op: OpWrite, handle: h, offset: uint64(len(want) + 5000), data: tail})
	want = append(append(want, make([]byte, 5000)...), tail...)

	var got []byte
	for off := 0; ; {
		rep := s.handle(&message{op: OpRead, handle: h, offset: uint64(off), count: 8192})
		if len(rep.data) == 0 {
			break
		}
		got = append(got, rep.data...)
		off += len(rep.data)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read back %d bytes, want %d (contents differ)", len(got), len(want))
	}
	if size := s.handle(&message{op: OpGetAttr, handle: h}).offset; size != uint64(len(want)) {
		t.Fatalf("GetAttr size = %d, want %d", size, len(want))
	}
}

// TestOutOfRangeOffsetsRefused sends READ and WRITE requests whose byte
// range reaches past maxFileSize: offsets come off the wire, so each must
// get StatusBadRequest and leave the file alone, not panic or allocate
// the gap.
func TestOutOfRangeOffsetsRefused(t *testing.T) {
	s := nas()
	h := s.handle(&message{op: OpCreate, name: "/f"}).handle
	s.handle(&message{op: OpWrite, handle: h, data: []byte("abc")})
	for _, req := range []*message{
		{op: OpRead, handle: h, offset: ^uint64(0), count: 8},
		{op: OpWrite, handle: h, offset: 1 << 63, data: []byte("xyz")},
		{op: OpWrite, handle: h, offset: maxFileSize, data: []byte("x")},
		{op: OpRead, handle: h, offset: maxFileSize + 1},
	} {
		if rep := s.handle(req); rep.status != StatusBadRequest {
			t.Errorf("op %d at offset %d: status %d, want StatusBadRequest", req.op, req.offset, rep.status)
		}
	}
	if got, _ := s.store.Get("/f"); string(got) != "abc" {
		t.Fatalf("file = %q after refused requests, want \"abc\"", got)
	}
}

// TestWriteHoleBounded writes past EOF: a hole up to MaxRead bytes (the
// most one request moves) is zero-filled, a wider one is refused and
// leaves the file alone.
func TestWriteHoleBounded(t *testing.T) {
	s := nas()
	maxRead := DefaultServerConfig().MaxRead
	h := s.handle(&message{op: OpCreate, name: "/f"}).handle
	s.handle(&message{op: OpWrite, handle: h, data: []byte("abc")})
	if rep := s.handle(&message{op: OpWrite, handle: h, offset: uint64(3 + maxRead), data: []byte("x")}); rep.status != StatusOK {
		t.Fatalf("write after a %d-byte hole: status %d, want StatusOK", maxRead, rep.status)
	}
	size := 4 + maxRead
	for _, off := range []int{size + maxRead + 1, 1 << 20} {
		if rep := s.handle(&message{op: OpWrite, handle: h, offset: uint64(off), data: []byte("y")}); rep.status != StatusBadRequest {
			t.Errorf("write after a %d-byte hole: status %d, want StatusBadRequest", off-size, rep.status)
		}
	}
	if got, _ := s.store.Get("/f"); len(got) != size {
		t.Fatalf("file is %d bytes after refused writes, want %d", len(got), size)
	}
}

// FuzzServerHandle decodes arbitrary datagrams and serves them against a
// NAS holding one empty file (handle 1): no request may panic the server
// or grow the file past one request's hole and payload. The committed
// corpus holds a READ at offset 2^64-1, a WRITE at 2^63 and a WRITE just
// below maxFileSize.
func FuzzServerHandle(f *testing.F) {
	f.Add((&message{op: OpRead, handle: 1, count: 8}).encode(nil))
	f.Add((&message{op: OpWrite, handle: 1, offset: 2, data: []byte("xyz")}).encode(nil))
	f.Fuzz(func(t *testing.T, b []byte) {
		var req message
		if err := decodeMessage(b, &req); err != nil {
			return
		}
		s := nas()
		s.handle(&message{op: OpCreate, name: "/f"})
		s.handle(&req)
		if n := len(s.store.files["/f"]); n > DefaultServerConfig().MaxRead+len(req.data) {
			t.Fatalf("one request grew the file to %d bytes", n)
		}
	})
}

// BenchmarkNASAppend appends 1 kB writes to a recording, starting a new
// one every 4 MB so the file stays bounded at any b.N.
func BenchmarkNASAppend(b *testing.B) {
	const chunk, limit = 1 << 10, 4 << 20
	s := nas()
	h := s.handle(&message{op: OpCreate, name: "/rec"}).handle
	data := make([]byte, chunk)
	b.SetBytes(chunk)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		off := i * chunk % limit
		if off == 0 {
			s.store.Put("/rec", nil)
		}
		s.handle(&message{op: OpWrite, handle: h, offset: uint64(off), data: data})
	}
}
