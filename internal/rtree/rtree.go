// Package rtree is the R*-tree skeleton [BEC90] that the GR-tree and the
// baseline R*-tree share. Section 3 of the paper describes the GR-tree as the
// R*-tree with time-parameterised insertion and bounding algorithms; this
// package is that common part: the node-page frame and meta record, latched
// node I/O, insertion with ChooseSubtree, the topological split and forced
// reinsertion, deletion with CondenseTree and the cursor epoch, the
// restartable Cursor, root fan-out parallel scans, STR bulk loading,
// index-only aggregation, invariant checks and statistics.
//
// A Tree is parameterised by a key algebra (Algebra) over the stored key K
// and a key context X that every key computation receives. The GR-tree's
// context carries the current time and the time-parameter horizon at which
// growing regions are scored; the R*-tree's context is empty.
package rtree

import (
	"encoding/binary"
	"fmt"

	"repro/internal/nodestore"
	"repro/internal/temporal"
)

// Algebra is the key algebra a Tree is parameterised by. Keys are scored
// through the plane shapes they resolve to (temporal.Shape: rectangles or
// stairs); area, margin, intersection and centre are the shape's own.
type Algebra[K comparable, X any] interface {
	// Bound returns the minimum bounding key of keys.
	Bound(keys []K, x X) K
	// Enlarge returns how much bound's scored area grows when it is extended
	// to cover k, together with the extended bound.
	Enlarge(bound, k K, x X) (float64, K)
	// Resolve returns the shape k is scored by under x.
	Resolve(k K, x X) temporal.Shape
	// SplitLess orders shapes by split sort key i: keys 0 and 1 are the
	// lower and upper ends of the first axis, 2 and 3 of the second.
	SplitLess(i int, a, b temporal.Shape) bool
	// Contains reports whether bound contains k (the delete descent).
	Contains(bound, k K, x X) bool
	// Covers reports whether bound legally covers child (Check).
	Covers(bound, child K, x X) bool
	// Less is the total lexicographic key order of MIN/MAX aggregation.
	Less(a, b K) bool
	// Encode writes entries into consecutive Format.EntrySize slots of buf;
	// Decode fills entries from them.
	Encode(buf []byte, entries []Entry[K])
	Decode(buf []byte, entries []Entry[K])
}

// Format is a tree's on-disk identity.
type Format struct {
	Name      string // error-message prefix, e.g. "grtree"
	Kind      string // what Open expects the store to hold, e.g. "GR-tree"
	NodeMagic uint32
	MetaMagic uint32
	EntrySize int // bytes per entry: key plus child id or payload
}

// Node page layout:
//
//	[0:4)  node magic
//	[4:5)  flags (bit0: leaf)
//	[5:6)  level (0 = leaf)
//	[6:8)  entry count
//	[8:16) reserved
//	entries at NodeHeader, EntrySize bytes each
const NodeHeader = 16

func (f Format) capacity() int { return (nodestore.NodeSize - NodeHeader) / f.EntrySize }

// DeletePolicy selects the Section 5.5 deletion strategy.
type DeletePolicy int

const (
	// RestartOnCondense is the paper's compromise: scanning restarts only
	// when the tree is actually condensed.
	RestartOnCondense DeletePolicy = iota
	// RestartAlways conservatively restarts after every deletion.
	RestartAlways
	// NoCondense never re-inserts: underfull nodes are tolerated (empty
	// nodes are still unlinked), trading search performance for scan
	// availability.
	NoCondense
)

func (p DeletePolicy) String() string {
	switch p {
	case RestartAlways:
		return "restart-always"
	case NoCondense:
		return "no-condense"
	default:
		return "restart-on-condense"
	}
}

// Config tunes the R* algorithms.
type Config struct {
	// MaxEntries caps node fanout (default and maximum: the page capacity).
	MaxEntries int
	// MinFillPct is the underflow threshold in percent (default 40).
	MinFillPct int
	// ReinsertPct is the forced-reinsertion fraction in percent on first
	// overflow per level (default 30, 0 disables).
	ReinsertPct int
	// DeletePolicy selects the Section 5.5 strategy.
	DeletePolicy DeletePolicy
}

func (c *Config) normalise(capacity int) {
	if c.MaxEntries <= 0 || c.MaxEntries > capacity {
		c.MaxEntries = capacity
	}
	c.MaxEntries = max(c.MaxEntries, 4)
	if c.MinFillPct <= 0 || c.MinFillPct > 50 {
		c.MinFillPct = 40
	}
	if c.ReinsertPct < 0 || c.ReinsertPct > 50 {
		c.ReinsertPct = 30
	}
}

// Entry is one node entry: a key plus either a child node id (internal
// nodes) or a payload (leaves).
type Entry[K any] struct {
	Key K
	Ref uint64 // child NodeID or payload
}

// Child returns the entry's child node id (internal entries).
func (e Entry[K]) Child() nodestore.NodeID { return nodestore.NodeID(e.Ref) }

type node[K any] struct {
	id      nodestore.NodeID
	leaf    bool
	level   int
	entries []Entry[K]
}

// Tree is an R*-tree over a node store. Mutating methods are not safe for
// concurrent use; the engine serialises access through the sbspace
// large-object locks (Section 5.3). Read-only traversal is additionally
// protected by a per-node latch table so a parallel scan's workers may
// descend concurrently (ParallelScan).
type Tree[K comparable, X any] struct {
	alg     Algebra[K, X]
	format  Format
	store   nodestore.Store
	cfg     Config
	latches *nodestore.LatchTable
	root    nodestore.NodeID
	height  int // number of levels; a lone leaf root has height 1
	size    int // live leaf entries
	// epoch counts structural modifications; cursors compare it to detect
	// that the tree was condensed or reorganised under them.
	epoch uint64
}

// Create initialises a new, empty tree in the store.
func Create[K comparable, X any](store nodestore.Store, alg Algebra[K, X], f Format, cfg Config) (*Tree[K, X], error) {
	cfg.normalise(f.capacity())
	t := &Tree[K, X]{alg: alg, format: f, store: store, cfg: cfg, latches: nodestore.NewLatchTable(), height: 1}
	rootID, err := store.Alloc()
	if err != nil {
		return nil, err
	}
	t.root = rootID
	if err := t.writeNode(&node[K]{id: rootID, leaf: true}); err != nil {
		return nil, err
	}
	if err := t.saveMeta(); err != nil {
		return nil, err
	}
	return t, nil
}

// Open loads an existing tree from the store.
func Open[K comparable, X any](store nodestore.Store, alg Algebra[K, X], f Format, cfg Config) (*Tree[K, X], error) {
	cfg.normalise(f.capacity())
	meta, err := store.Meta()
	if err != nil {
		return nil, err
	}
	if len(meta) < 32 || binary.BigEndian.Uint32(meta[0:4]) != f.MetaMagic {
		return nil, fmt.Errorf("%s: store holds no %s", f.Name, f.Kind)
	}
	t := &Tree[K, X]{alg: alg, format: f, store: store, cfg: cfg, latches: nodestore.NewLatchTable()}
	t.root = nodestore.NodeID(binary.BigEndian.Uint64(meta[8:16]))
	t.height = int(binary.BigEndian.Uint64(meta[16:24]))
	t.size = int(binary.BigEndian.Uint64(meta[24:32]))
	return t, nil
}

// saveMeta writes the meta record: magic, root, height, size.
func (t *Tree[K, X]) saveMeta() error {
	meta := make([]byte, 32)
	binary.BigEndian.PutUint32(meta[0:4], t.format.MetaMagic)
	binary.BigEndian.PutUint64(meta[8:16], uint64(t.root))
	binary.BigEndian.PutUint64(meta[16:24], uint64(t.height))
	binary.BigEndian.PutUint64(meta[24:32], uint64(t.size))
	return t.store.SetMeta(meta)
}

// Size returns the number of live leaf entries.
func (t *Tree[K, X]) Size() int { return t.size }

// Height returns the number of levels.
func (t *Tree[K, X]) Height() int { return t.height }

// Store exposes the underlying node store (statistics).
func (t *Tree[K, X]) Store() nodestore.Store { return t.store }

// Config returns the normalised configuration.
func (t *Tree[K, X]) Config() Config { return t.cfg }

func (t *Tree[K, X]) minFill() int {
	return max(t.cfg.MaxEntries*t.cfg.MinFillPct/100, 1)
}

func (t *Tree[K, X]) encode(n *node[K], buf []byte) {
	for i := range buf {
		buf[i] = 0
	}
	binary.BigEndian.PutUint32(buf[0:4], t.format.NodeMagic)
	if n.leaf {
		buf[4] = 1
	}
	buf[5] = byte(n.level)
	binary.BigEndian.PutUint16(buf[6:8], uint16(len(n.entries)))
	t.alg.Encode(buf[NodeHeader:], n.entries)
}

func (t *Tree[K, X]) decode(id nodestore.NodeID, buf []byte) (*node[K], error) {
	if binary.BigEndian.Uint32(buf[0:4]) != t.format.NodeMagic {
		return nil, fmt.Errorf("%s: node %d has bad magic", t.format.Name, id)
	}
	n := &node[K]{id: id, leaf: buf[4]&1 != 0, level: int(buf[5])}
	count := int(binary.BigEndian.Uint16(buf[6:8]))
	if count > t.format.capacity() {
		return nil, fmt.Errorf("%s: node %d has impossible count %d", t.format.Name, id, count)
	}
	n.entries = make([]Entry[K], count)
	t.alg.Decode(buf[NodeHeader:], n.entries)
	return n, nil
}

// load reads and decodes node id; the caller holds its latch.
func (t *Tree[K, X]) load(id nodestore.NodeID) (*node[K], error) {
	buf := make([]byte, nodestore.NodeSize)
	if err := t.store.Read(id, buf); err != nil {
		return nil, err
	}
	return t.decode(id, buf)
}

func (t *Tree[K, X]) readNode(id nodestore.NodeID) (*node[K], error) {
	t.latches.RLock(id)
	defer t.latches.RUnlock(id)
	return t.load(id)
}

func (t *Tree[K, X]) writeNode(n *node[K]) error {
	buf := make([]byte, nodestore.NodeSize)
	t.encode(n, buf)
	t.latches.Lock(n.id)
	err := t.store.Write(n.id, buf)
	t.latches.Unlock(n.id)
	return err
}

// keys returns the keys of entries (for bounding computations).
func keys[K any](entries []Entry[K]) []K {
	out := make([]K, len(entries))
	for i, e := range entries {
		out[i] = e.Key
	}
	return out
}

// bound computes the node's minimum bounding key.
func (t *Tree[K, X]) bound(n *node[K], x X) K {
	return t.alg.Bound(keys(n.entries), x)
}

// RootBound returns the bound over the root's entries.
func (t *Tree[K, X]) RootBound(x X) (K, error) {
	root, err := t.readNode(t.root)
	if err != nil {
		var zero K
		return zero, err
	}
	return t.bound(root, x), nil
}
