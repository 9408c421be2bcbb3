// Package query is the relational read plane over the serving stack: a
// small relational algebra — scan, select (σ), project (π), hash join
// (⋈), group-aggregate, limit — whose operators are lazy pull-based
// iterators streaming straight out of the answer store, the inference
// surfaces on the serving service, and the assignment ledger. No scan
// copies the store: every answer-sourced relation in one query reads the
// same pinned prefix of the store's append-only log with no lock held
// (see Catalog), so results are consistent even under concurrent ingest.
// Each operator writes its rows into one row buffer of its own, so a row
// is valid only until the next pull from the relation that returned it;
// the operators that keep rows (a hash join's build side, the
// group-aggregate and Collect) copy them (see Relation). A hash join
// stores its build rows in fixed-size blocks indexed by one flat
// open-addressing table sized once from the build count, and the rows
// all hash joins of one query store and emit are bounded by MaxJoinRows.
//
// Plans arrive as a JSON AST over POST /v1/query (see Node and Handler)
// or as one of the canned views, which are saved plans of the same AST
// (see View): method disagreement, worker-quality drop, spend-vs-budget
// and worker suspects. Join ordering is greedy and statistics-free:
// every relation in the catalog has a known cardinality class (a single
// budget row < outstanding leases < workers < per-task rows < answers),
// so the planner just joins smallest-first and always builds the hash
// table on the smaller side — the janus-datalog observation that
// known-shape queries need no optimizer.
//
// Rows are flat []float64 and columns are named; values that do not
// exist yet (no posterior before the first epoch, unlimited budget) are
// reported as -1 sentinels rather than NaN, which JSON cannot encode.
package query

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"sort"
)

// Row is one tuple; its meaning is given by the relation's Cols.
type Row []float64

// Relation is a lazily-evaluated stream of rows with a named schema.
// Next returns the next row and true, or nil and false once drained.
// Iterators are single-use: a Relation is consumed by exactly one
// downstream operator (or the result encoder) and never rewound.
//
// A row is valid only until the next call of Next on the relation that
// returned it: each operator writes its rows into one buffer of its own,
// and no operator writes into a row it did not make. A consumer that
// keeps rows copies them; the join's build side, GroupAggregate and
// Collect do.
type Relation struct {
	Cols []string
	Next func() (Row, bool)
}

// colIndex resolves a column name to its position, or -1.
func colIndex(cols []string, name string) int {
	for i, c := range cols {
		if c == name {
			return i
		}
	}
	return -1
}

// blockRows is how many rows one block of a rowBlocks holds.
const blockRows = 256

// rowBlocks keeps fixed-width rows, addressed by index, in blocks of
// blockRows rows, so growing it never copies the rows already kept.
type rowBlocks struct {
	width  int
	blocks [][]float64
}

// grow makes rows [0, n) addressable; rows it adds are zero.
func (s *rowBlocks) grow(n int) {
	for len(s.blocks)*blockRows < n {
		s.blocks = append(s.blocks, make([]float64, blockRows*s.width))
	}
}

// at returns row i, which grow has made addressable.
func (s *rowBlocks) at(i int) []float64 {
	j := uint(i) % blockRows * uint(s.width)
	return s.blocks[uint(i)/blockRows][j : j+uint(s.width)]
}

// fromRows wraps an already-built row slice as a Relation (used for the
// small derived relations — never for the answer store).
func fromRows(cols []string, rows []Row) Relation {
	i := 0
	return Relation{Cols: cols, Next: func() (Row, bool) {
		if i >= len(rows) {
			return nil, false
		}
		r := rows[i]
		i++
		return r, true
	}}
}

// Select is σ: it streams the rows of in that satisfy pred.
func Select(in Relation, pred func(Row) bool) Relation {
	return Relation{Cols: in.Cols, Next: func() (Row, bool) {
		for {
			r, ok := in.Next()
			if !ok {
				return nil, false
			}
			if pred(r) {
				return r, true
			}
		}
	}}
}

// Project is π: it keeps exactly the named columns, in the given order.
func Project(in Relation, cols []string) (Relation, error) {
	idx := make([]int, len(cols))
	for i, c := range cols {
		j := colIndex(in.Cols, c)
		if j < 0 {
			return Relation{}, fmt.Errorf("project: unknown column %q (have %v)", c, in.Cols)
		}
		idx[i] = j
	}
	out := append([]string(nil), cols...)
	p := make(Row, len(idx))
	return Relation{Cols: out, Next: func() (Row, bool) {
		r, ok := in.Next()
		if !ok {
			return nil, false
		}
		for i, j := range idx {
			p[i] = r[j]
		}
		return p, true
	}}, nil
}

// Limit truncates the stream after n rows (n < 0 means no limit).
func Limit(in Relation, n int) Relation {
	seen := 0
	return Relation{Cols: in.Cols, Next: func() (Row, bool) {
		if n >= 0 && seen >= n {
			return nil, false
		}
		r, ok := in.Next()
		if ok {
			seen++
		}
		return r, ok
	}}
}

// nanKey is the key bit pattern every NaN folds to.
const nanKey = 0x7ff8000000000001

// keyBits is what join and group keys compare: v's bit pattern, with
// every NaN folded to one pattern. +0 and −0 are two keys, as are +Inf
// and −Inf, and all NaNs are one: the equality classes of the "%x"
// text keys these bits replaced.
func keyBits(v float64) uint64 {
	if v != v {
		return nanKey
	}
	return math.Float64bits(v)
}

// keyHash hashes the key columns idx of r under seed. Equal keys hash
// equal. The closing mix spreads every key bit into the low bits a
// joinTable indexes by: the bits of small integral floats differ only in
// their high bits.
func keyHash(r []float64, idx []int, seed uint64) uint64 {
	h := seed
	for _, j := range idx {
		h = (h ^ keyBits(r[j])) * 0x100000001b3
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// sameKey reports whether the key columns ai of a equal the key columns
// bi of b.
func sameKey(a []float64, ai []int, b []float64, bi []int) bool {
	for k, j := range ai {
		if keyBits(a[j]) != keyBits(b[bi[k]]) {
			return false
		}
	}
	return true
}

// joinTable indexes a join's stored build rows by their key columns. It
// is one open-addressing table with linear probing, sized once to a
// power of two at least 1.5 times the build count, so it never grows and
// every probe ends at an empty slot. A slot holds 1 + the first build
// row of one distinct key (0 marks it empty), and next links each build
// row to the following one with the same key, so a key's rows read in
// build order. Each table hashes under a random seed, so a client who
// picks the answer values a join keys on cannot pile its keys into one
// run of slots.
type joinTable struct {
	rows  *rowBlocks
	idx   []int // the key columns of a build row
	seed  uint64
	slots []int32
	next  []int32
}

// newJoinTable indexes the first n rows of rows by the key columns idx.
func newJoinTable(rows *rowBlocks, n int, idx []int) joinTable {
	size := 1 << bits.Len(uint(n+n/2))
	t := joinTable{rows: rows, idx: idx, seed: rand.Uint64(), slots: make([]int32, size), next: make([]int32, n)}
	// Insert back to front, each row ahead of the rows already chained
	// under its key.
	for i := n - 1; i >= 0; i-- {
		s := t.slot(rows.at(i), idx)
		t.next[i] = t.slots[s]
		t.slots[s] = int32(i + 1)
	}
	return t
}

// slot returns the slot of the key columns idx of r: the one holding
// that key, or the empty one where it would go.
func (t *joinTable) slot(r []float64, idx []int) uint64 {
	mask := uint64(len(t.slots) - 1)
	s := keyHash(r, idx, t.seed) & mask
	for t.slots[s] != 0 && !sameKey(t.rows.at(int(t.slots[s]-1)), t.idx, r, idx) {
		s = (s + 1) & mask
	}
	return s
}

// HashJoin is ⋈ on the named key columns: it drains build into stored
// rows indexed by a joinTable on the join columns (see keyBits), then
// streams probe, emitting one output row per match, a probe row's
// matches in build order. The output schema is build's columns followed
// by probe's non-key columns; a non-key column name shared by both
// sides is an error (the algebra has no rename). The caller arranges
// build to be the known-smaller side — see greedy ordering in ast.go.
// Every row the join stores and every row it emits counts against the
// catalog's MaxJoinRows budget; past it the join records ErrJoinBudget
// on the catalog and ends its stream.
func (c *Catalog) HashJoin(build, probe Relation, on []string) (Relation, error) {
	if len(on) == 0 {
		return Relation{}, fmt.Errorf("join: no join columns (cross joins are not supported)")
	}
	bIdx := make([]int, len(on))
	pIdx := make([]int, len(on))
	for i, col := range on {
		if bIdx[i] = colIndex(build.Cols, col); bIdx[i] < 0 {
			return Relation{}, fmt.Errorf("join: column %q missing on build side %v", col, build.Cols)
		}
		if pIdx[i] = colIndex(probe.Cols, col); pIdx[i] < 0 {
			return Relation{}, fmt.Errorf("join: column %q missing on probe side %v", col, probe.Cols)
		}
	}
	// Probe columns that survive into the output (everything but keys).
	var pKeep []int
	cols := append([]string(nil), build.Cols...)
	for j, col := range probe.Cols {
		if colIndex(on, col) >= 0 {
			continue
		}
		if colIndex(build.Cols, col) >= 0 {
			return Relation{}, fmt.Errorf("join: ambiguous column %q on both sides (project it away first)", col)
		}
		pKeep = append(pKeep, j)
		cols = append(cols, col)
	}

	var (
		bw       = len(build.Cols)
		stored   = rowBlocks{width: bw}
		table    joinTable
		cur      int32 // 1 + the next build row matching probeRow; 0 ends
		probeRow Row
		out      = make(Row, len(cols))
	)
	return Relation{Cols: cols, Next: func() (Row, bool) {
		if table.slots == nil {
			n := 0
			for {
				r, ok := build.Next()
				if !ok {
					break
				}
				if !c.spendJoinRow() {
					break
				}
				stored.grow(n + 1)
				copy(stored.at(n), r)
				n++
			}
			if c.err != nil {
				return nil, false
			}
			table = newJoinTable(&stored, n, bIdx)
		}
		for {
			if cur != 0 {
				if !c.spendJoinRow() {
					return nil, false
				}
				copy(out, stored.at(int(cur-1)))
				for k, j := range pKeep {
					out[bw+k] = probeRow[j]
				}
				cur = table.next[cur-1]
				return out, true
			}
			r, ok := probe.Next()
			if !ok {
				return nil, false
			}
			probeRow = r
			cur = table.slots[table.slot(r, pIdx)]
		}
	}}, nil
}

// spendJoinRow counts one row a join stores or emits against
// MaxJoinRows. Past the budget it records ErrJoinBudget and reports
// false, and the join ends its stream.
func (c *Catalog) spendJoinRow() bool {
	if c.joinRows++; c.joinRows > MaxJoinRows {
		c.err = ErrJoinBudget
		return false
	}
	return true
}

// appendKey appends v's key bits (see keyBits), eight bytes per column.
func appendKey(k []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(k, keyBits(v))
}

// AggOp is one aggregation function.
type AggOp string

const (
	AggCount AggOp = "count"
	AggSum   AggOp = "sum"
	AggAvg   AggOp = "avg"
	AggMin   AggOp = "min"
	AggMax   AggOp = "max"
)

// Agg is one aggregate output column: Op applied to Col (Col is ignored
// for count), emitted under the name As.
type Agg struct {
	Op  AggOp  `json:"op"`
	Col string `json:"col,omitempty"`
	As  string `json:"as"`
}

// GroupAggregate groups in by the named columns and computes the
// aggregates per group; with no group columns it emits exactly one row
// over the whole input (zero rows of input still yield one: count 0,
// sum 0, min/max -1). The input is drained on the first Next; output
// rows are sorted by the group columns so results are deterministic.
func GroupAggregate(in Relation, by []string, aggs []Agg) (Relation, error) {
	if len(aggs) == 0 {
		return Relation{}, fmt.Errorf("aggregate: no aggregate columns")
	}
	byIdx := make([]int, len(by))
	for i, c := range by {
		if byIdx[i] = colIndex(in.Cols, c); byIdx[i] < 0 {
			return Relation{}, fmt.Errorf("aggregate: unknown group column %q (have %v)", c, in.Cols)
		}
	}
	aggIdx := make([]int, len(aggs))
	cols := append([]string(nil), by...)
	for i, a := range aggs {
		switch a.Op {
		case AggCount, AggSum, AggAvg, AggMin, AggMax:
		default:
			return Relation{}, fmt.Errorf("aggregate: unknown op %q", a.Op)
		}
		if a.As == "" {
			return Relation{}, fmt.Errorf("aggregate: missing output name (as) for %q", a.Op)
		}
		aggIdx[i] = -1
		if a.Op != AggCount {
			if aggIdx[i] = colIndex(in.Cols, a.Col); aggIdx[i] < 0 {
				return Relation{}, fmt.Errorf("aggregate: unknown column %q for %q", a.Col, a.Op)
			}
		}
		cols = append(cols, a.As)
	}

	type acc struct {
		group      Row
		count      []float64
		sum        []float64
		min, max   []float64
		minMaxInit []bool
	}
	var out []Row
	done := false
	pos := 0
	drain := func() {
		groups := map[string]*acc{}
		var (
			order []string
			k     []byte // the current row's group key, built in place
		)
		for {
			r, ok := in.Next()
			if !ok {
				break
			}
			k = k[:0]
			for _, j := range byIdx {
				k = appendKey(k, r[j])
			}
			a := groups[string(k)]
			if a == nil {
				key := string(k)
				g := make(Row, len(byIdx))
				for i, j := range byIdx {
					g[i] = r[j]
				}
				a = &acc{
					group: g,
					count: make([]float64, len(aggs)), sum: make([]float64, len(aggs)),
					min: make([]float64, len(aggs)), max: make([]float64, len(aggs)),
					minMaxInit: make([]bool, len(aggs)),
				}
				groups[key] = a
				order = append(order, key)
			}
			for i := range aggs {
				a.count[i]++
				if aggIdx[i] >= 0 {
					v := r[aggIdx[i]]
					a.sum[i] += v
					if !a.minMaxInit[i] || v < a.min[i] {
						a.min[i] = v
					}
					if !a.minMaxInit[i] || v > a.max[i] {
						a.max[i] = v
					}
					a.minMaxInit[i] = true
				}
			}
		}
		if len(by) == 0 && len(order) == 0 {
			a := &acc{
				group: Row{},
				count: make([]float64, len(aggs)), sum: make([]float64, len(aggs)),
				min: make([]float64, len(aggs)), max: make([]float64, len(aggs)),
				minMaxInit: make([]bool, len(aggs)),
			}
			groups[""] = a
			order = append(order, "")
		}
		for _, k := range order {
			a := groups[k]
			row := append(make(Row, 0, len(cols)), a.group...)
			for i, spec := range aggs {
				switch spec.Op {
				case AggCount:
					row = append(row, a.count[i])
				case AggSum:
					row = append(row, a.sum[i])
				case AggAvg:
					if a.count[i] == 0 {
						row = append(row, -1)
					} else {
						row = append(row, a.sum[i]/a.count[i])
					}
				case AggMin:
					if !a.minMaxInit[i] {
						row = append(row, -1)
					} else {
						row = append(row, a.min[i])
					}
				case AggMax:
					if !a.minMaxInit[i] {
						row = append(row, -1)
					} else {
						row = append(row, a.max[i])
					}
				}
			}
			out = append(out, row)
		}
		sort.Slice(out, func(i, j int) bool {
			for c := range byIdx {
				if out[i][c] != out[j][c] {
					return out[i][c] < out[j][c]
				}
			}
			return false
		})
	}
	return Relation{Cols: cols, Next: func() (Row, bool) {
		if !done {
			drain()
			done = true
		}
		if pos >= len(out) {
			return nil, false
		}
		r := out[pos]
		pos++
		return r, true
	}}, nil
}

// Collect drains a relation into at most limit rows (limit < 0 means
// unbounded), reporting whether the stream had more. It is the terminal
// operator the HTTP handler encodes from. It keeps the rows it reads, so
// it copies them, all into one backing array of its own.
func Collect(in Relation, limit int) (rows []Row, truncated bool) {
	var flat []float64
	for {
		r, ok := in.Next()
		if !ok {
			break
		}
		if limit >= 0 && len(rows) >= limit {
			truncated = true
			break
		}
		flat = append(flat, r...)
		rows = append(rows, r) // for its length only: r is overwritten by the next Next
	}
	// Point each row at its copy in flat's final backing array.
	off := 0
	for i, r := range rows {
		rows[i] = flat[off : off+len(r) : off+len(r)]
		off += len(r)
	}
	return rows, truncated
}
