package grtree

import (
	"encoding/binary"

	"repro/internal/chronon"
	"repro/internal/nodestore"
	"repro/internal/rtree"
	"repro/internal/temporal"
)

// Node entries are 48 bytes: TTBegin, TTEnd, VTBegin, VTEnd (int64
// big-endian; sentinel values carry UC/NOW), flags (bit0 Rectangle, bit1
// Hidden), 7 pad bytes, then the child id or payload.
const entrySize = 48

// Capacity is the maximum number of entries per node (one node per page,
// Section 3).
const Capacity = (nodestore.NodeSize - rtree.NodeHeader) / entrySize

var format = rtree.Format{
	Name: "grtree", Kind: "GR-tree",
	NodeMagic: 0x4752544E, // "GRTN"
	MetaMagic: 0x47525452, // "GRTR"
	EntrySize: entrySize,
}

// ctx is the region algebra's key context: the current time bounds are
// computed at, and the time-parameter horizon candidates are scored at
// (Section 3: "a time parameter, capturing the development over time of
// entries, is introduced in these algorithms").
type ctx struct {
	ct, horizon chronon.Instant
}

// regions is the GR-tree's key algebra: growing regions bounded by
// temporal.Bound under the tree's bounding policy.
type regions struct {
	pol temporal.BoundPolicy
}

func (a regions) Bound(rs []temporal.Region, x ctx) temporal.Region {
	return temporal.Bound(rs, x.ct, a.pol)
}

func (a regions) Enlarge(bound, r temporal.Region, x ctx) (float64, temporal.Region) {
	return bound.Enlargement(r, x.ct, a.pol)
}

func (regions) Resolve(r temporal.Region, x ctx) temporal.Shape { return r.Resolve(x.horizon) }

// SplitLess compares the split sort keys — transaction-time begin and end,
// then valid-time begin and end — as float64.
func (regions) SplitLess(i int, a, b temporal.Shape) bool {
	return float64([4]int64{a.TTBegin, a.TTEnd, a.VTBegin, a.VTEnd}[i]) < float64([4]int64{b.TTBegin, b.TTEnd, b.VTBegin, b.VTEnd}[i])
}

func (regions) Contains(bound, r temporal.Region, x ctx) bool { return bound.Contains(r, x.ct) }

func (regions) Covers(bound, r temporal.Region, x ctx) bool { return bound.CoversRegion(r, x.ct) }

// Less orders regions by the raw lexicographic instant key (TTBegin, TTEnd,
// VTBegin, VTEnd). The chronon sentinels (NOW, UC, Forever) are large int64
// values, so now-relative extents deterministically sort above all ground
// instants — the same total order the server's tuple-drain comparator
// applies, which is what makes pushed MIN/MAX agree exactly with the
// fallback.
func (regions) Less(a, b temporal.Region) bool {
	if a.TTBegin != b.TTBegin {
		return a.TTBegin < b.TTBegin
	}
	if a.TTEnd != b.TTEnd {
		return a.TTEnd < b.TTEnd
	}
	if a.VTBegin != b.VTBegin {
		return a.VTBegin < b.VTBegin
	}
	return a.VTEnd < b.VTEnd
}

func (regions) Encode(buf []byte, es []Entry) {
	for i, e := range es {
		b := buf[i*entrySize:][:entrySize]
		binary.BigEndian.PutUint64(b[0:], uint64(e.Key.TTBegin))
		binary.BigEndian.PutUint64(b[8:], uint64(e.Key.TTEnd))
		binary.BigEndian.PutUint64(b[16:], uint64(e.Key.VTBegin))
		binary.BigEndian.PutUint64(b[24:], uint64(e.Key.VTEnd))
		var fl byte
		if e.Key.Rect {
			fl |= 1
		}
		if e.Key.Hidden {
			fl |= 2
		}
		b[32] = fl
		binary.BigEndian.PutUint64(b[40:], e.Ref)
	}
}

func (regions) Decode(buf []byte, es []Entry) {
	for i := range es {
		b := buf[i*entrySize:][:entrySize]
		es[i] = Entry{Key: temporal.Region{
			TTBegin: chronon.Instant(binary.BigEndian.Uint64(b[0:])),
			TTEnd:   chronon.Instant(binary.BigEndian.Uint64(b[8:])),
			VTBegin: chronon.Instant(binary.BigEndian.Uint64(b[16:])),
			VTEnd:   chronon.Instant(binary.BigEndian.Uint64(b[24:])),
			Rect:    b[32]&1 != 0,
			Hidden:  b[32]&2 != 0,
		}, Ref: binary.BigEndian.Uint64(b[40:])}
	}
}
