// Package resource implements the runtime's hierarchical resource manager.
//
// Paper §4: "Resources are managed hierarchically to allow for robust
// clean-up of child resources in the case of a failing parent object."
// Every runtime object (application, Offcode, channel, pinned memory
// region) registers as a node under its owner; closing any node closes its
// whole subtree, children first, exactly once.
package resource

import (
	"errors"
	"fmt"
)

// Node is one managed resource. Create children with NewChild; the zero
// Node is not usable — obtain a root from NewRoot.
//
// A Node also carries quota accounting: Charge books usage of a named
// resource kind (e.g. "memory", "channels") against this node and every
// ancestor, failing with a *QuotaError if any node on the path has a limit
// (SetLimit) that the charge would exceed. Intermediate nodes therefore
// bound their whole subtree. Closing a node automatically releases
// whatever its subtree still holds from the surviving ancestors.
type Node struct {
	name     string
	closer   func() error
	parent   *Node
	children []*Node
	closed   bool

	limits map[string]int64
	usage  map[string]int64
}

// NewRoot creates an unparented resource tree root.
func NewRoot(name string) *Node {
	return &Node{name: name}
}

// NewChild registers a child resource. closer may be nil for grouping
// nodes. Adding to a closed node returns an error: the subtree is already
// being torn down and the new resource would leak.
func (n *Node) NewChild(name string, closer func() error) (*Node, error) {
	if n.closed {
		return nil, fmt.Errorf("resource: %s is closed", n.Path())
	}
	c := &Node{name: name, closer: closer, parent: n}
	n.children = append(n.children, c)
	return c, nil
}

// MustChild is NewChild for callers that know the parent is open.
func (n *Node) MustChild(name string, closer func() error) *Node {
	c, err := n.NewChild(name, closer)
	if err != nil {
		panic(err)
	}
	return c
}

// Name returns the node's own name.
func (n *Node) Name() string { return n.name }

// Path returns the /-joined path from the root.
func (n *Node) Path() string {
	if n.parent == nil {
		return n.name
	}
	return n.parent.Path() + "/" + n.name
}

// QuotaError reports a Charge that would exceed a limit somewhere on the
// path to the root.
type QuotaError struct {
	// Node is the path of the node whose limit would be exceeded.
	Node string
	// Kind is the resource kind being charged.
	Kind string
	// Limit, Used and Requested describe the rejected charge.
	Limit, Used, Requested int64
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("resource: %s: %s quota exceeded (%d used + %d requested > %d limit)",
		e.Node, e.Kind, e.Used, e.Requested, e.Limit)
}

// SetLimit bounds the subtree's total usage of kind. A zero or negative
// limit removes the bound.
func (n *Node) SetLimit(kind string, limit int64) {
	if limit <= 0 {
		delete(n.limits, kind)
		return
	}
	if n.limits == nil {
		n.limits = make(map[string]int64)
	}
	n.limits[kind] = limit
}

// Usage reports the subtree's current booked usage of kind.
func (n *Node) Usage(kind string) int64 { return n.usage[kind] }

// Charge books amount units of kind against this node and every ancestor.
// If any node on the path has a limit the charge would exceed, nothing is
// booked and a *QuotaError for the tightest offender is returned.
func (n *Node) Charge(kind string, amount int64) error {
	if amount < 0 {
		return fmt.Errorf("resource: negative charge %d of %s", amount, kind)
	}
	if n.closed {
		return fmt.Errorf("resource: %s is closed", n.Path())
	}
	for m := n; m != nil; m = m.parent {
		if lim, ok := m.limits[kind]; ok && m.usage[kind]+amount > lim {
			return &QuotaError{Node: m.Path(), Kind: kind,
				Limit: lim, Used: m.usage[kind], Requested: amount}
		}
	}
	for m := n; m != nil; m = m.parent {
		if m.usage == nil {
			m.usage = make(map[string]int64)
		}
		m.usage[kind] += amount
	}
	return nil
}

// Release returns amount units of kind booked by an earlier Charge on this
// node (or a now-closed descendant). Releasing more than is booked clamps
// at zero rather than going negative.
func (n *Node) Release(kind string, amount int64) {
	for m := n; m != nil; m = m.parent {
		if m.usage == nil {
			continue
		}
		if m.usage[kind] < amount {
			m.usage[kind] = 0
			continue
		}
		m.usage[kind] -= amount
	}
}

// Close tears down the subtree: children in reverse creation order
// (dependents were created after what they depend on), then this node's
// closer. Every closer runs exactly once; all errors are joined.
func (n *Node) Close() error {
	if n.closed {
		return nil
	}
	n.closed = true
	var errs []error
	for i := len(n.children) - 1; i >= 0; i-- {
		if err := n.children[i].Close(); err != nil {
			errs = append(errs, err)
		}
	}
	n.children = nil
	if n.closer != nil {
		if err := n.closer(); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", n.Path(), err))
		}
	}
	// Whatever the subtree still holds (children released theirs above)
	// is returned to the surviving ancestors.
	if n.parent != nil {
		for kind, amt := range n.usage {
			if amt > 0 {
				n.parent.Release(kind, amt)
			}
		}
	}
	n.usage = nil
	if n.parent != nil {
		n.parent.forget(n)
	}
	return errors.Join(errs...)
}

func (n *Node) forget(child *Node) {
	for i, c := range n.children {
		if c == child {
			n.children = append(n.children[:i], n.children[i+1:]...)
			return
		}
	}
}
