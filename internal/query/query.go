// Package query is the relational read plane over the serving stack: a
// small relational algebra — scan, select (σ), project (π), hash join
// (⋈), group-aggregate, limit — whose operators are lazy pull-based
// iterators streaming straight out of the sharded answer store, the
// inference surfaces on the serving service, and the assignment ledger.
// No scan materializes the store: the answer scan copies one small chunk
// at a time under short shard read-locks, and every answer-sourced
// relation in one query is pinned to a single store version (see
// Catalog), so results are consistent even under concurrent ingest.
// A hash join buffers its build side in one flat slice, and the rows all
// hash joins of one query store are bounded by MaxJoinRows.
//
// Plans arrive as a JSON AST over POST /v1/query (see Node and Handler)
// or as one of the canned operator views (see Views): method
// disagreement, worker-quality drop, and spend-vs-budget. Join ordering
// is greedy and statistics-free: every relation in the catalog has a
// known cardinality class (a single budget row < outstanding leases <
// workers < per-task rows < answers), so the planner just joins
// smallest-first and always builds the hash table on the smaller side —
// the janus-datalog observation that known-shape queries need no
// optimizer.
//
// Rows are flat []float64 and columns are named; values that do not
// exist yet (no posterior before the first epoch, unlimited budget) are
// reported as -1 sentinels rather than NaN, which JSON cannot encode.
package query

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// Row is one tuple; its meaning is given by the relation's Cols.
type Row []float64

// Relation is a lazily-evaluated stream of rows with a named schema.
// Next returns the next row and true, or nil and false once drained.
// Iterators are single-use: a Relation is consumed by exactly one
// downstream operator (or the result encoder) and never rewound.
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

// slabRows is how many rows one slab allocation holds.
const slabRows = 256

// slab carves fixed-width rows out of shared backing arrays, so an
// operator makes one allocation per slabRows rows instead of one per
// row. Each row's capacity is capped at its width, so appending to a
// row copies it rather than writing into its neighbour, and no operator
// mutates a row it did not make, so rows that share an array stay
// independent.
type slab struct {
	width int
	buf   []float64
}

// of returns a new row of the slab's width that starts with vals (at
// most width of them) and is zero after them.
func (s *slab) of(vals ...float64) Row {
	if s.width == 0 {
		return Row{}
	}
	if len(s.buf) < s.width {
		s.buf = make([]float64, s.width*slabRows)
	}
	r := s.buf[:s.width:s.width]
	s.buf = s.buf[s.width:]
	copy(r, vals)
	return r
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
	rows := slab{width: len(idx)}
	return Relation{Cols: out, Next: func() (Row, bool) {
		r, ok := in.Next()
		if !ok {
			return nil, false
		}
		p := rows.of()
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

// keyHash hashes the key columns idx of r. Equal keys hash equal, and a
// one-column key hashes without collisions.
func keyHash(r []float64, idx []int) uint64 {
	var h uint64
	for _, j := range idx {
		h = (h ^ keyBits(r[j])) * 0x100000001b3
	}
	return h
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

// HashJoin is ⋈ on the named key columns: it drains build into one
// slice and a table keyed by the join columns (see keyBits), then
// streams probe, emitting one output row per match, a probe row's
// matches in build order. The output schema is build's columns followed
// by probe's non-key columns; a non-key column name shared by both
// sides is an error (the algebra has no rename). The caller arranges
// build to be the known-smaller side — see greedy ordering in ast.go.
// Every build row counts against the catalog's MaxJoinRows budget; past
// it the join records ErrJoinBudget on the catalog and ends its stream.
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
		vals     []float64        // the build rows, bw values each
		head     map[uint64]int32 // key hash → 1 + its first build row
		next     []int32          // 1 + the next build row with the same hash; 0 ends
		cur      int32            // 1 + the next build row to try on probeRow
		probeRow Row
		rows     = slab{width: len(cols)}
	)
	return Relation{Cols: cols, Next: func() (Row, bool) {
		if head == nil {
			for {
				r, ok := build.Next()
				if !ok {
					break
				}
				if c.joinRows++; c.joinRows > MaxJoinRows {
					c.err = ErrJoinBudget
					break
				}
				vals = append(vals, r...)
			}
			if c.err != nil {
				return nil, false
			}
			// Chain each hash's rows back to front, so the chains read in
			// build order.
			n := len(vals) / bw
			head = make(map[uint64]int32, n)
			next = make([]int32, n)
			for i := n - 1; i >= 0; i-- {
				h := keyHash(vals[i*bw:], bIdx)
				next[i] = head[h]
				head[h] = int32(i + 1)
			}
		}
		for {
			for cur != 0 {
				b := vals[int(cur-1)*bw : int(cur)*bw]
				cur = next[cur-1]
				if !sameKey(b, bIdx, probeRow, pIdx) {
					continue
				}
				out := rows.of(b...)
				for k, j := range pKeep {
					out[bw+k] = probeRow[j]
				}
				return out, true
			}
			r, ok := probe.Next()
			if !ok {
				return nil, false
			}
			probeRow = r
			cur = head[keyHash(r, pIdx)]
		}
	}}, nil
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
		var order []string
		for {
			r, ok := in.Next()
			if !ok {
				break
			}
			k := make([]byte, 0, 16*len(byIdx))
			for _, j := range byIdx {
				k = appendKey(k, r[j])
			}
			a := groups[string(k)]
			if a == nil {
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
				groups[string(k)] = a
				order = append(order, string(k))
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
			row := append(Row{}, a.group...)
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
// operator the HTTP handler encodes from.
func Collect(in Relation, limit int) (rows []Row, truncated bool) {
	for {
		r, ok := in.Next()
		if !ok {
			return rows, false
		}
		if limit >= 0 && len(rows) >= limit {
			return rows, true
		}
		rows = append(rows, r)
	}
}
