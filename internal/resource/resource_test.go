package resource

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestCloseOrder(t *testing.T) {
	var order []string
	closer := func(name string) func() error {
		return func() error { order = append(order, name); return nil }
	}
	root := NewRoot("root")
	app := root.MustChild("app", closer("app"))
	oc1 := app.MustChild("oc1", closer("oc1"))
	oc1.MustChild("chan1", closer("chan1"))
	app.MustChild("oc2", closer("oc2"))

	if err := root.Close(); err != nil {
		t.Fatal(err)
	}
	want := []string{"oc2", "chan1", "oc1", "app"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestCloseExactlyOnce(t *testing.T) {
	count := 0
	root := NewRoot("root")
	c := root.MustChild("c", func() error { count++; return nil })
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := root.Close(); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("closer ran %d times", count)
	}
}

func TestCloseChildDetaches(t *testing.T) {
	root := NewRoot("root")
	a := root.MustChild("a", nil)
	a.Close()
	for _, c := range root.children {
		if !c.closed {
			t.Fatalf("child %s still live after close", c.name)
		}
	}
}

func TestAddToClosedFails(t *testing.T) {
	root := NewRoot("root")
	root.Close()
	if _, err := root.NewChild("late", nil); err == nil {
		t.Fatal("adding to closed node succeeded")
	}
}

func TestErrorsJoined(t *testing.T) {
	e1 := errors.New("one")
	e2 := errors.New("two")
	root := NewRoot("root")
	root.MustChild("a", func() error { return e1 })
	root.MustChild("b", func() error { return e2 })
	err := root.Close()
	if !errors.Is(err, e1) || !errors.Is(err, e2) {
		t.Fatalf("joined error missing parts: %v", err)
	}
}

func TestFailingParentStillClosesChildren(t *testing.T) {
	childClosed := false
	root := NewRoot("root")
	p := root.MustChild("p", func() error { return errors.New("parent boom") })
	p.MustChild("c", func() error { childClosed = true; return nil })
	err := p.Close()
	if err == nil {
		t.Fatal("parent error swallowed")
	}
	if !childClosed {
		t.Fatal("child leaked when parent closer failed")
	}
}

func TestPathAndDump(t *testing.T) {
	root := NewRoot("rt")
	a := root.MustChild("app", nil)
	c := a.MustChild("chan", nil)
	if c.Path() != "rt/app/chan" {
		t.Fatalf("path = %q", c.Path())
	}
}

// Property: every closer in an arbitrary tree runs exactly once when the
// root closes, regardless of shape.
func TestAllClosedOnceProperty(t *testing.T) {
	prop := func(shape []uint8) bool {
		root := NewRoot("root")
		nodes := []*Node{root}
		counts := make([]int, len(shape))
		for i, parentSel := range shape {
			i := i
			parent := nodes[int(parentSel)%len(nodes)]
			child, err := parent.NewChild("n", func() error { counts[i]++; return nil })
			if err != nil {
				return false
			}
			nodes = append(nodes, child)
		}
		if err := root.Close(); err != nil {
			return false
		}
		for _, c := range counts {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// --- Quota accounting ---

func TestQuotaEnforcedAtIntermediateNode(t *testing.T) {
	root := NewRoot("root")
	app := root.MustChild("app", nil)
	app.SetLimit("memory", 100)
	oc := app.MustChild("oc", nil)

	// Charges on a leaf are checked against — and booked at — every
	// ancestor, so the intermediate app node bounds its whole subtree.
	if err := oc.Charge("memory", 60); err != nil {
		t.Fatal(err)
	}
	sibling := app.MustChild("oc2", nil)
	if err := sibling.Charge("memory", 30); err != nil {
		t.Fatal(err)
	}
	err := sibling.Charge("memory", 20)
	var qerr *QuotaError
	if !errors.As(err, &qerr) {
		t.Fatalf("err = %v, want *QuotaError", err)
	}
	if qerr.Node != "root/app" || qerr.Kind != "memory" || qerr.Limit != 100 || qerr.Used != 90 || qerr.Requested != 20 {
		t.Fatalf("quota error = %+v", qerr)
	}
	// A rejected charge books nothing anywhere.
	if app.Usage("memory") != 90 || root.Usage("memory") != 90 || sibling.Usage("memory") != 30 {
		t.Fatalf("usage after rejection: app=%d root=%d sib=%d",
			app.Usage("memory"), root.Usage("memory"), sibling.Usage("memory"))
	}

	// The root may carry its own (tighter) limit above the app's.
	root.SetLimit("memory", 95)
	if err := oc.Charge("memory", 8); err == nil {
		t.Fatal("root limit not enforced")
	} else if !errors.As(err, &qerr) || qerr.Node != "root" {
		t.Fatalf("err = %v", err)
	}

	// Release unwinds the whole path.
	oc.Release("memory", 60)
	if app.Usage("memory") != 30 || root.Usage("memory") != 30 {
		t.Fatalf("usage after release: app=%d root=%d", app.Usage("memory"), root.Usage("memory"))
	}
	// Zero/negative SetLimit removes the bound.
	app.SetLimit("memory", 0)
	if err := sibling.Charge("memory", 50); err != nil {
		t.Fatalf("unlimited node still rejected: %v", err)
	}
}

func TestQuotaReleasedWhenSubtreeCloses(t *testing.T) {
	root := NewRoot("root")
	app := root.MustChild("app", nil)
	app.SetLimit("channels", 2)
	ch1 := app.MustChild("ch1", nil)
	if err := ch1.Charge("channels", 1); err != nil {
		t.Fatal(err)
	}
	ch2 := app.MustChild("ch2", nil)
	if err := ch2.Charge("channels", 1); err != nil {
		t.Fatal(err)
	}
	if err := app.Charge("channels", 1); err == nil {
		t.Fatal("limit not enforced")
	}
	// Closing a charged node returns its booking to the ancestors.
	if err := ch1.Close(); err != nil {
		t.Fatal(err)
	}
	if app.Usage("channels") != 1 || root.Usage("channels") != 1 {
		t.Fatalf("usage after child close: app=%d root=%d", app.Usage("channels"), root.Usage("channels"))
	}
	if _, err := app.NewChild("ch3", nil); err != nil {
		t.Fatal(err)
	}
	// Closing the whole app subtree clears everything above it.
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	if root.Usage("channels") != 0 {
		t.Fatalf("root usage after subtree close = %d", root.Usage("channels"))
	}
	// Charging a closed node fails.
	if err := ch2.Charge("channels", 1); err == nil {
		t.Fatal("charge on closed node accepted")
	}
}

// --- Close semantics the session layer depends on ---

// Double Close is idempotent even when the closer errored the first time:
// the closer runs exactly once and the second Close reports nil.
func TestDoubleCloseIdempotentAfterCloserError(t *testing.T) {
	boom := errors.New("boom")
	runs := 0
	root := NewRoot("root")
	n := root.MustChild("n", func() error { runs++; return boom })
	if err := n.Close(); !errors.Is(err, boom) {
		t.Fatalf("first close = %v", err)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("second close = %v", err)
	}
	if runs != 1 {
		t.Fatalf("closer ran %d times", runs)
	}
	// Same at the root, with the failing node already gone.
	if err := root.Close(); err != nil {
		t.Fatalf("root close = %v", err)
	}
	if err := root.Close(); err != nil {
		t.Fatalf("root re-close = %v", err)
	}
}

// A grandchild's closer error propagates through every level of Close and
// names the failing node's path, while the rest of the subtree still
// closes completely.
func TestCloserErrorPropagatesThroughSubtree(t *testing.T) {
	boom := errors.New("deep failure")
	var closed []string
	note := func(name string, err error) func() error {
		return func() error { closed = append(closed, name); return err }
	}
	root := NewRoot("rt")
	app := root.MustChild("app", note("app", nil))
	oc := app.MustChild("oc", note("oc", nil))
	oc.MustChild("chan", note("chan", boom))
	app.MustChild("pin", note("pin", nil))

	err := root.Close()
	if !errors.Is(err, boom) {
		t.Fatalf("close = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "rt/app/oc/chan") {
		t.Fatalf("error does not name the failing node: %v", err)
	}
	// Every closer still ran, children before parents.
	want := []string{"pin", "chan", "oc", "app"}
	if len(closed) != len(want) {
		t.Fatalf("closed = %v", closed)
	}
	for i := range want {
		if closed[i] != want[i] {
			t.Fatalf("closed = %v, want %v", closed, want)
		}
	}
}
