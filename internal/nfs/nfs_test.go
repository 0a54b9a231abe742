package nfs

import (
	"bytes"
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
	cfg := netsim.GigabitSwitched()
	cfg.LossProb = 1.0 // everything dropped
	net := netsim.New(eng, cfg)
	nas := net.Attach("nas")
	host := net.Attach("host")
	NewServer(eng, nas, NewStore(), DefaultServerConfig())
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
		got, err := decodeMessage(m.encode())
		if err != nil {
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
		if _, err := decodeMessage(b); err == nil {
			t.Errorf("decode of %d bytes succeeded", len(b))
		}
	}
	// Truncated name/data length fields.
	m := &message{op: OpRead, name: "abcdef", data: []byte("xyz")}
	enc := m.encode()
	if _, err := decodeMessage(enc[:len(enc)-2]); err == nil {
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
