// Package rstar implements the R*-tree of Beckmann et al. [BEC90] over
// two-dimensional integer rectangles: the access method the GR-tree is
// derived from (Section 3) and the baseline index for the performance-shape
// experiments. Bitemporal data is indexed through it by substituting ground
// values for UC and NOW (the rstblade package implements the maximum-
// timestamp and current-insertion-time substitution policies).
//
// The R* skeleton itself lives in package rtree; this package supplies the
// rectangle algebra it runs on (its key context is empty), the operators
// with their leaf and internal tests, and the 40-byte entry codec.
package rstar

import (
	"encoding/binary"
	"fmt"

	"repro/internal/nodestore"
	"repro/internal/rtree"
	"repro/internal/temporal"
)

// Rect is a closed integer rectangle [XMin, XMax] × [YMin, YMax].
type Rect struct {
	XMin, XMax, YMin, YMax int64
}

// Empty reports whether the rectangle contains no cell.
func (r Rect) Empty() bool { return r.XMin > r.XMax || r.YMin > r.YMax }

// Area returns the number of cells.
func (r Rect) Area() float64 {
	if r.Empty() {
		return 0
	}
	return float64(r.XMax-r.XMin+1) * float64(r.YMax-r.YMin+1)
}

// Margin returns the half-perimeter.
func (r Rect) Margin() float64 {
	if r.Empty() {
		return 0
	}
	return float64(r.XMax-r.XMin+1) + float64(r.YMax-r.YMin+1)
}

// Union returns the minimum bounding rectangle of r and o.
func (r Rect) Union(o Rect) Rect {
	if r.Empty() {
		return o
	}
	if o.Empty() {
		return r
	}
	return Rect{
		XMin: min(r.XMin, o.XMin), XMax: max(r.XMax, o.XMax),
		YMin: min(r.YMin, o.YMin), YMax: max(r.YMax, o.YMax),
	}
}

// Intersect returns the intersection (possibly empty).
func (r Rect) Intersect(o Rect) Rect {
	return Rect{
		XMin: max(r.XMin, o.XMin), XMax: min(r.XMax, o.XMax),
		YMin: max(r.YMin, o.YMin), YMax: min(r.YMax, o.YMax),
	}
}

// Overlaps reports whether the rectangles share a cell.
func (r Rect) Overlaps(o Rect) bool { return !r.Intersect(o).Empty() }

// Contains reports whether o lies inside r.
func (r Rect) Contains(o Rect) bool {
	if o.Empty() {
		return true
	}
	return r.XMin <= o.XMin && o.XMax <= r.XMax && r.YMin <= o.YMin && o.YMax <= r.YMax
}

// IntersectionArea returns the shared cell count.
func (r Rect) IntersectionArea(o Rect) float64 { return r.Intersect(o).Area() }

// Enlargement returns how much r must grow to cover o.
func (r Rect) Enlargement(o Rect) float64 { return r.Union(o).Area() - r.Area() }

func (r Rect) String() string {
	return fmt.Sprintf("[%d..%d]x[%d..%d]", r.XMin, r.XMax, r.YMin, r.YMax)
}

// rects is the R*-tree's key algebra: rectangles resolve to stair-free
// plane shapes and need no context.
type rects struct{}

// Node entries are 40 bytes: XMin, XMax, YMin, YMax (int64 big-endian), then
// the child id or payload.
const entrySize = 40

// Capacity is the maximum entries per node.
const Capacity = (nodestore.NodeSize - rtree.NodeHeader) / entrySize

var format = rtree.Format{
	Name: "rstar", Kind: "R*-tree",
	NodeMagic: 0x5253544E, // "RSTN"
	MetaMagic: 0x52535452, // "RSTR"
	EntrySize: entrySize,
}

func (rects) Bound(rs []Rect, _ struct{}) Rect {
	b := rs[0]
	for _, r := range rs[1:] {
		b = b.Union(r)
	}
	return b
}

func (rects) Enlarge(bound, r Rect, _ struct{}) (float64, Rect) {
	return bound.Enlargement(r), bound.Union(r)
}

// Resolve returns the rectangle as a plane shape: the stair-free case,
// whose area, margin and intersection arithmetic equal Rect's own.
func (rects) Resolve(r Rect, _ struct{}) temporal.Shape {
	return temporal.Rect(r.XMin, r.XMax, r.YMin, r.YMax)
}

// SplitLess compares the split sort keys XMin, XMax, YMin, YMax as int64:
// near chronon.Forever (the maximum-timestamp substitute) distinct
// coordinates collapse to one float64, so float keys would tie.
func (rects) SplitLess(i int, a, b temporal.Shape) bool {
	return [4]int64{a.TTBegin, a.TTEnd, a.VTBegin, a.VTEnd}[i] < [4]int64{b.TTBegin, b.TTEnd, b.VTBegin, b.VTEnd}[i]
}

func (rects) Contains(bound, r Rect, _ struct{}) bool { return bound.Contains(r) }

func (rects) Covers(bound, r Rect, _ struct{}) bool { return bound.Contains(r) }

// Less orders rectangles lexicographically by (XMin, XMax, YMin, YMax) — the
// rstblade maps (TTBegin, TTEnd, VTBegin, VTEnd) onto these coordinates, so
// this is the same total order the GR-tree and the server's tuple-drain
// comparator use.
func (rects) Less(a, b Rect) bool {
	if a.XMin != b.XMin {
		return a.XMin < b.XMin
	}
	if a.XMax != b.XMax {
		return a.XMax < b.XMax
	}
	if a.YMin != b.YMin {
		return a.YMin < b.YMin
	}
	return a.YMax < b.YMax
}

func (rects) Encode(buf []byte, es []Entry) {
	for i, e := range es {
		b := buf[i*entrySize:][:entrySize]
		binary.BigEndian.PutUint64(b[0:], uint64(e.Key.XMin))
		binary.BigEndian.PutUint64(b[8:], uint64(e.Key.XMax))
		binary.BigEndian.PutUint64(b[16:], uint64(e.Key.YMin))
		binary.BigEndian.PutUint64(b[24:], uint64(e.Key.YMax))
		binary.BigEndian.PutUint64(b[32:], e.Ref)
	}
}

func (rects) Decode(buf []byte, es []Entry) {
	for i := range es {
		b := buf[i*entrySize:][:entrySize]
		es[i] = Entry{Key: Rect{
			XMin: int64(binary.BigEndian.Uint64(b[0:])),
			XMax: int64(binary.BigEndian.Uint64(b[8:])),
			YMin: int64(binary.BigEndian.Uint64(b[16:])),
			YMax: int64(binary.BigEndian.Uint64(b[24:])),
		}, Ref: binary.BigEndian.Uint64(b[32:])}
	}
}
