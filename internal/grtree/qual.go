package grtree

import (
	"fmt"

	"repro/internal/chronon"
	"repro/internal/temporal"
)

// Op is a query predicate operator — the strategy functions of the GR-tree
// operator class (Section 5.2), numbered in its STRATEGIES order: Overlaps,
// Equal, Contains, ContainedIn.
type Op int

const (
	// OpOverlaps finds extents whose regions share a cell with the query.
	OpOverlaps Op = iota
	// OpEqual finds extents whose regions equal the query region.
	OpEqual
	// OpContains finds extents whose regions contain the query region.
	OpContains
	// OpContainedIn finds extents whose regions lie inside the query region.
	OpContainedIn
)

func (o Op) String() string {
	switch o {
	case OpOverlaps:
		return "Overlaps"
	case OpEqual:
		return "Equal"
	case OpContains:
		return "Contains"
	case OpContainedIn:
		return "ContainedIn"
	}
	return "?"
}

// leafTest evaluates the predicate against a leaf region — the strategy
// function proper, operating on exact geometry.
func leafTest(op Op, entry, query temporal.Region, ct chronon.Instant) bool {
	switch op {
	case OpOverlaps:
		return entry.Overlaps(query, ct)
	case OpEqual:
		return entry.Equal(query, ct)
	case OpContains:
		return entry.Contains(query, ct)
	case OpContainedIn:
		return entry.ContainedIn(query, ct)
	}
	return false
}

// internalTest is the pruning predicate for internal-node bounding regions —
// the "internal" companion of each strategy function that Section 5.2
// discusses (OverlapsInternal() etc., hard-coded in the prototype): it must
// hold whenever any descendant leaf could satisfy the strategy function.
func internalTest(op Op, bound, query temporal.Region, ct chronon.Instant) bool {
	switch op {
	case OpOverlaps, OpContainedIn:
		// A leaf overlapping (or inside) the query overlaps it, so its
		// ancestors' bounds do too.
		return bound.Overlaps(query, ct)
	case OpEqual, OpContains:
		// A leaf equal to (or containing) the query contains it, so its
		// ancestors' bounds contain it as well.
		return bound.Contains(query, ct)
	}
	return false
}

// Predicate is a search qualification: an operator and a query extent.
type Predicate struct {
	Op    Op
	Query temporal.Extent
}

// Match evaluates the predicate against an extent at ct (the non-indexed
// fallback the server uses when the optimizer skips the index).
func (p Predicate) Match(e temporal.Extent, ct chronon.Instant) bool {
	return leafTest(p.Op, e.Region(), p.Query.Region(), ct)
}

// Matcher generalises the cursor's predicate: LeafMatch is the exact
// strategy test on a data region; InternalMatch is the pruning test on a
// bounding region and must hold whenever any descendant leaf could match.
type Matcher interface {
	LeafMatch(r temporal.Region, ct chronon.Instant) bool
	InternalMatch(bound temporal.Region, ct chronon.Instant) bool
}

// LeafMatch implements Matcher for a single predicate.
func (p Predicate) LeafMatch(r temporal.Region, ct chronon.Instant) bool {
	return leafTest(p.Op, r, p.Query.Region(), ct)
}

// InternalMatch implements Matcher for a single predicate.
func (p Predicate) InternalMatch(bound temporal.Region, ct chronon.Instant) bool {
	return internalTest(p.Op, bound, p.Query.Region(), ct)
}

// Compound is an AND/OR tree over predicates — the blade-side decomposition
// of a complex qualification descriptor (Section 6.3: "the logic for how to
// break a complex qualification ... into simple ones and ... how to invoke
// appropriate strategy functions").
type Compound struct {
	And      bool // true = conjunction, false = disjunction
	Children []*Compound
	Pred     *Predicate // leaf when non-nil
}

// Leaf wraps one predicate.
func Leaf(p Predicate) *Compound { return &Compound{Pred: &p} }

// AndOf conjoins compounds.
func AndOf(cs ...*Compound) *Compound { return &Compound{And: true, Children: cs} }

// OrOf disjoins compounds.
func OrOf(cs ...*Compound) *Compound { return &Compound{And: false, Children: cs} }

// Validate checks every query extent.
func (c *Compound) Validate() error {
	if c == nil {
		return fmt.Errorf("grtree: nil qualification")
	}
	if c.Pred != nil {
		if !c.Pred.Query.Valid() {
			return fmt.Errorf("grtree: invalid query extent %v", c.Pred.Query)
		}
		return nil
	}
	if len(c.Children) == 0 {
		return fmt.Errorf("grtree: empty boolean qualification")
	}
	for _, ch := range c.Children {
		if err := ch.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// LeafMatch implements Matcher.
func (c *Compound) LeafMatch(r temporal.Region, ct chronon.Instant) bool {
	if c.Pred != nil {
		return c.Pred.LeafMatch(r, ct)
	}
	for _, ch := range c.Children {
		m := ch.LeafMatch(r, ct)
		if c.And && !m {
			return false
		}
		if !c.And && m {
			return true
		}
	}
	return c.And
}

// InternalMatch implements Matcher: a leaf satisfying an AND satisfies every
// conjunct, so every conjunct's internal test must hold on the bound; for an
// OR, some disjunct's internal test must hold.
func (c *Compound) InternalMatch(bound temporal.Region, ct chronon.Instant) bool {
	if c.Pred != nil {
		return c.Pred.InternalMatch(bound, ct)
	}
	for _, ch := range c.Children {
		m := ch.InternalMatch(bound, ct)
		if c.And && !m {
			return false
		}
		if !c.And && m {
			return true
		}
	}
	return c.And
}

// atTime binds a Matcher to the current time a traversal runs at — the
// shape of qualification the shared R* core evaluates.
type atTime struct {
	m  Matcher
	ct chronon.Instant
}

func (a *atTime) LeafMatch(r temporal.Region) bool { return a.m.LeafMatch(r, a.ct) }

func (a *atTime) InternalMatch(bound temporal.Region) bool { return a.m.InternalMatch(bound, a.ct) }

// predAt is one predicate bound to a current time, its query region
// converted once: the matcher of the tree's own searches and aggregates.
type predAt struct {
	op    Op
	query temporal.Region
	ct    chronon.Instant
}

func (p Predicate) at(ct chronon.Instant) *predAt { return &predAt{p.Op, p.Query.Region(), ct} }

func (p *predAt) LeafMatch(r temporal.Region) bool { return leafTest(p.op, r, p.query, p.ct) }

func (p *predAt) InternalMatch(bound temporal.Region) bool {
	return internalTest(p.op, bound, p.query, p.ct)
}
