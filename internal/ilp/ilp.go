// Package ilp solves small 0-1 integer linear programs.
//
// Section 5 of the paper expresses the offloading layout problem as an ILP —
// binary placement variables X^k_n with Pull/Gang/Asymmetric-Gang equations
// and objectives such as "Maximized Offloading" and "Maximize Bus Usage" —
// and notes that "any ILP solver can then be used". The runtime is offline
// and stdlib-only, so this package supplies that solver: branch and bound
// over binary variables with LP-relaxation bounds computed by a dense
// two-phase simplex.
package ilp

import (
	"errors"
	"fmt"
	"math"
)

// Sense is a constraint direction.
type Sense int

// Constraint senses.
const (
	LE Sense = iota // a·x ≤ b
	EQ              // a·x = b
	GE              // a·x ≥ b
)

// Constraint is one linear row over a sparse set of variables.
type Constraint struct {
	Coeffs map[int]float64
	Sense  Sense
	RHS    float64
	Label  string // diagnostic tag, e.g. "pull(streamer,file)"
}

// Problem is a maximization over binary variables.
type Problem struct {
	NumVars     int
	Objective   []float64 // len NumVars; maximize Objective·x
	Constraints []Constraint
}

// AddConstraint appends a row.
func (p *Problem) AddConstraint(c Constraint) { p.Constraints = append(p.Constraints, c) }

// Validate checks indices and shapes.
func (p *Problem) Validate() error {
	if p.NumVars <= 0 {
		return errors.New("ilp: no variables")
	}
	if len(p.Objective) != p.NumVars {
		return fmt.Errorf("ilp: objective has %d coefficients for %d variables", len(p.Objective), p.NumVars)
	}
	for i, c := range p.Constraints {
		if len(c.Coeffs) == 0 {
			return fmt.Errorf("ilp: constraint %d (%s) is empty", i, c.Label)
		}
		for v := range c.Coeffs {
			if v < 0 || v >= p.NumVars {
				return fmt.Errorf("ilp: constraint %d (%s) references variable %d", i, c.Label, v)
			}
		}
	}
	return nil
}

// Solution is the solver output.
type Solution struct {
	X         []int // binary assignment
	Objective float64
	Nodes     int // branch-and-bound nodes explored
}

// ErrInfeasible is returned when no binary assignment satisfies the rows.
var ErrInfeasible = errors.New("ilp: infeasible")

// Options tunes the solver.
type Options struct {
	MaxNodes int // node budget; 0 means a generous default
}

const intTol = 1e-6

// Solve finds a provably optimal binary assignment, or ErrInfeasible.
func Solve(p *Problem, opts Options) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	maxNodes := opts.MaxNodes
	if maxNodes == 0 {
		maxNodes = 200_000
	}

	s := &solver{p: p, maxNodes: maxNodes, bestObj: math.Inf(-1)}
	fixed := make([]int8, p.NumVars) // -1 free, 0 fixed zero, 1 fixed one
	for i := range fixed {
		fixed[i] = -1
	}
	s.branch(fixed)
	if s.nodeLimit {
		return nil, fmt.Errorf("ilp: node budget (%d) exhausted", maxNodes)
	}
	if s.best == nil {
		return nil, ErrInfeasible
	}
	return &Solution{X: s.best, Objective: s.bestObj, Nodes: s.nodes}, nil
}

type solver struct {
	p         *Problem
	nodes     int
	maxNodes  int
	best      []int
	bestObj   float64
	nodeLimit bool
}

func (s *solver) branch(fixed []int8) {
	if s.nodeLimit {
		return
	}
	s.nodes++
	if s.nodes > s.maxNodes {
		s.nodeLimit = true
		return
	}

	relax, feasible := solveRelaxation(s.p, fixed)
	if !feasible {
		return
	}
	// Bound: the LP optimum dominates every completion of this node.
	if relax.value <= s.bestObj+1e-9 {
		return
	}

	// Find the most fractional variable.
	branchVar := -1
	worst := intTol
	for i, x := range relax.x {
		if fixed[i] >= 0 {
			continue
		}
		frac := math.Abs(x - math.Round(x))
		if frac > worst {
			worst = frac
			branchVar = i
		}
	}
	if branchVar < 0 {
		// Integral: candidate incumbent.
		xint := make([]int, len(relax.x))
		for i, x := range relax.x {
			if fixed[i] >= 0 {
				xint[i] = int(fixed[i])
			} else {
				xint[i] = int(math.Round(x))
			}
		}
		obj := 0.0
		for i, c := range s.p.Objective {
			obj += c * float64(xint[i])
		}
		if obj > s.bestObj {
			s.bestObj = obj
			s.best = xint
		}
		return
	}

	// Depth-first, exploring the rounding the relaxation prefers first.
	first, second := int8(1), int8(0)
	if relax.x[branchVar] < 0.5 {
		first, second = 0, 1
	}
	for _, v := range []int8{first, second} {
		child := make([]int8, len(fixed))
		copy(child, fixed)
		child[branchVar] = v
		s.branch(child)
	}
}
