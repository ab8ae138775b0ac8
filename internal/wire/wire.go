// Package wire is ftnetd's compact binary embedding encoding: the
// fleet-scale alternative to the JSON wire, shared by the daemon
// (internal/server), its SDK (ftnet/client) and the offline decoder
// (cmd/ftnet wire).
//
// Two payload kinds share a common header (magic, kind, topology id):
//
//	full   one committed embedding snapshot: generation, guest geometry,
//	       the FNV-1a map checksum, the fault set, the edge-fault set,
//	       and the whole guest map, varint-packed (each entry a zigzag
//	       delta against its row-major predecessor — near-identity maps
//	       cost ~1 byte/node).
//	delta  the columns changed between two generations: the head
//	       checksum, the head fault set, the head edge-fault set, and
//	       for each changed guest column its full value slice (Side
//	       entries, zigzag delta-packed within the column). Apply
//	       patches a full snapshot forward and re-verifies the
//	       checksum, so a client can never silently hold state the
//	       server did not serve.
//
// Edge faults are canonical (u < v) pairs sorted lexicographically and
// gap-encoded: per edge a uvarint u-gap against the previous edge's u,
// then a uvarint v-gap (against u when u advanced, against the previous
// v otherwise) — a clustered edge burst costs ~2 bytes/edge.
//
// Every decoder is total: arbitrary input bytes produce either a valid
// message or an error wrapping ErrCorrupt — never a panic, never an
// unbounded allocation (declared lengths are checked against the bytes
// actually present before any slice is made). FuzzWireCodec pins this.
package wire

import (
	"encoding/binary"
	"fmt"

	"ftnet/internal/fterr"
)

// ContentType is the media type negotiated (via Accept) for binary
// payloads on the ftnetd wire.
const ContentType = "application/x-ftnet-wire"

// Payload kinds (the byte after the magic).
const (
	KindFull  byte = 1
	KindDelta byte = 2
)

// magic prefixes every payload; the trailing byte versions the format.
var magic = [4]byte{'F', 'T', 'W', '1'}

// ErrCorrupt reports an undecodable payload: bad magic, truncated or
// trailing bytes, an implausible length, or a failed checksum. It is a
// coded sentinel: errors.Is identifies it through %w wrapping, and
// fterr.CodeOf reads fterr.Corrupt off the same chain (resync class —
// the holder's copy is untrustworthy, refetch).
var ErrCorrupt error = &fterr.E{Code: fterr.Corrupt, Op: "wire", Msg: "corrupt payload"}

// ErrMismatch reports a delta that does not apply to the snapshot at
// hand (wrong topology, geometry, or base generation, or a post-apply
// checksum failure). The client's recovery is a full resync, which is
// exactly what its fterr.ResyncRequired code prescribes.
var ErrMismatch error = &fterr.E{Code: fterr.ResyncRequired, Op: "wire", Msg: "delta does not apply to this snapshot"}

// Decoder sanity caps: a corrupt header must not provoke huge
// allocations or overflow, so declared geometry is bounded before any
// buffer is sized. The map length is additionally bounded by the bytes
// actually present (every entry costs at least one byte).
const (
	maxTopology = 256
	maxDims     = 16
	maxSide     = 1 << 20
	maxEntries  = 1 << 28
	// MaxValue bounds the integers a payload carries: every decoded node
	// index and map entry lies below it, and no generation exceeds it.
	MaxValue = int64(1) << 40
)

// Snapshot is one full committed embedding state on the wire — the
// binary twin of the daemon's JSON embedding response.
type Snapshot struct {
	// Topology is the hosting topology's id.
	Topology string
	// Generation counts the daemon's successful commits.
	Generation int64
	// Side and Dims give the guest torus geometry; len(Map) = Side^Dims.
	Side, Dims int
	// Faults is the committed fault set, strictly increasing.
	Faults []int
	// Edges is the committed edge-fault set: canonical {u, v} pairs with
	// u < v, lexicographically strictly increasing.
	Edges [][2]int
	// Map lists the host node for each guest node in row-major order.
	Map []int
	// Checksum is the FNV-1a hash of Map (see Checksum); decoders verify
	// it, so a Snapshot in hand is always internally consistent.
	Checksum uint64
}

// ColumnUpdate carries one changed guest column: the Side map entries
// for guest nodes j*numCols+Col, j in [0, Side).
type ColumnUpdate struct {
	Col  int
	Vals []int
}

// Delta is the diff between two committed generations: apply the column
// updates to the full snapshot at FromGeneration and you hold the full
// snapshot at ToGeneration (Apply verifies this against Checksum).
type Delta struct {
	Topology                     string
	FromGeneration, ToGeneration int64
	Side, Dims                   int
	// Faults is the complete fault set at ToGeneration.
	Faults []int
	// Edges is the complete edge-fault set at ToGeneration (canonical,
	// lexicographically strictly increasing, like Snapshot.Edges).
	Edges [][2]int
	// Cols lists the changed guest columns, strictly increasing by Col.
	Cols []ColumnUpdate
	// Checksum is the FNV-1a hash of the full map at ToGeneration.
	Checksum uint64
}

// numCols returns the guest column count side^(dims-1).
func numCols(side, dims int) int {
	n := 1
	for i := 1; i < dims; i++ {
		n *= side
	}
	return n
}

// FNV-1a (64-bit) parameters, and prime^7 mod 2^64, which folds the six
// zero high bytes of an entry below 2^16: xoring in a zero byte is a
// no-op, so those bytes are six plain multiplies by the prime, and the
// second byte's own multiply joins them as one multiply by prime^7.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	mask64    = 1<<64 - 1
	fnvPrime2 = (fnvPrime * fnvPrime) & mask64
	fnvPrime7 = (fnvPrime2 * fnvPrime2 * fnvPrime2 * fnvPrime) & mask64
)

// Checksum hashes an embedding map: FNV-1a over each entry's 8
// little-endian bytes, in map (row-major) order — the checksum field of
// the JSON wire and of the daemon's snapshot files too.
// An entry below 2^16 folds its zero high bytes into one multiply, so
// it costs 2 multiplies, not 8; any other entry hashes all 8 bytes.
// FuzzChecksum pins the result to hash/fnv.
//
//ftnet:hotpath
func Checksum(m []int) uint64 {
	h := uint64(fnvOffset)
	for _, v := range m {
		u := uint64(v)
		if u < 1<<16 {
			h = (h ^ u&0xff) * fnvPrime
			h = (h ^ u>>8) * fnvPrime7
			continue
		}
		for i := 0; i < 64; i += 8 {
			h = (h ^ u>>i&0xff) * fnvPrime
		}
	}
	return h
}

// ---------------------------------------------------------------------------
// Encoding.

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

func appendHeader(b []byte, kind byte, topology string) ([]byte, error) {
	if len(topology) > maxTopology {
		return nil, fterr.New(fterr.Invalid, "wire.Encode", "topology id longer than %d bytes", maxTopology)
	}
	b = append(b, magic[:]...)
	b = append(b, kind)
	b = binary.AppendUvarint(b, uint64(len(topology)))
	b = append(b, topology...)
	return b, nil
}

func checkGeometry(side, dims, gen int64) error {
	if dims < 1 || dims > maxDims {
		return fterr.New(fterr.Invalid, "wire", "dims %d out of [1, %d]", dims, maxDims)
	}
	if side < 1 || side > maxSide {
		return fterr.New(fterr.Invalid, "wire", "side %d out of [1, %d]", side, maxSide)
	}
	if gen < 0 {
		return fterr.New(fterr.Invalid, "wire", "negative generation %d", gen)
	}
	return nil
}

// appendFaults packs a strictly increasing fault list: count, first
// value, then successive differences (all uvarints).
//
//ftnet:hotpath
func appendFaults(b []byte, faults []int) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(faults)))
	prev := -1
	for _, v := range faults {
		if v <= prev {
			return nil, fterr.New(fterr.Invalid, "wire.Encode", "fault list not strictly increasing at %d", v)
		}
		b = binary.AppendUvarint(b, uint64(v-prev-1))
		prev = v
	}
	return b, nil
}

// appendEdges packs a canonical (u < v), lexicographically strictly
// increasing edge-fault list: count, then per edge the uvarint gap
// du = u - prevU and a second uvarint dv — v - u - 1 when u advanced,
// v - prevV - 1 when it did not (v strictly increases within a u run).
//
//ftnet:hotpath
func appendEdges(b []byte, edges [][2]int) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(edges)))
	prevU, prevV := 0, -1
	for i, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= v || int64(v) >= MaxValue {
			return nil, fterr.New(fterr.Invalid, "wire.Encode", "edge {%d, %d} not canonical (want 0 <= u < v)", u, v)
		}
		if i > 0 && (u < prevU || (u == prevU && v <= prevV)) {
			return nil, fterr.New(fterr.Invalid, "wire.Encode", "edge list not strictly increasing at {%d, %d}", u, v)
		}
		du := u - prevU
		b = binary.AppendUvarint(b, uint64(du))
		if i == 0 || du > 0 {
			b = binary.AppendUvarint(b, uint64(v-u-1))
		} else {
			b = binary.AppendUvarint(b, uint64(v-prevV-1))
		}
		prevU, prevV = u, v
	}
	return b, nil
}

// appendVals packs map entries as zigzag deltas against the previous
// entry (prev starts at 0).
//
//ftnet:hotpath
func appendVals(b []byte, vals []int) ([]byte, error) {
	prev := 0
	for _, v := range vals {
		if v < 0 || int64(v) >= MaxValue {
			return nil, fterr.New(fterr.Invalid, "wire.Encode", "map entry %d out of range", v)
		}
		b = binary.AppendVarint(b, int64(v-prev))
		prev = v
	}
	return b, nil
}

// EncodeSnapshot renders a full snapshot. The checksum written to the
// wire is computed from Map (s.Checksum is not trusted).
func EncodeSnapshot(s *Snapshot) ([]byte, error) {
	if err := checkGeometry(int64(s.Side), int64(s.Dims), s.Generation); err != nil {
		return nil, err
	}
	if want := mapLen(s.Side, s.Dims); want != len(s.Map) {
		return nil, fterr.New(fterr.Invalid, "wire.EncodeSnapshot", "map has %d entries, want side^dims = %d", len(s.Map), want)
	}
	b, err := appendHeader(make([]byte, 0, 16+len(s.Topology)+2*len(s.Map)), KindFull, s.Topology)
	if err != nil {
		return nil, err
	}
	b = binary.AppendUvarint(b, uint64(s.Generation))
	b = binary.AppendUvarint(b, uint64(s.Side))
	b = binary.AppendUvarint(b, uint64(s.Dims))
	b = binary.LittleEndian.AppendUint64(b, Checksum(s.Map))
	if b, err = appendFaults(b, s.Faults); err != nil {
		return nil, err
	}
	if b, err = appendEdges(b, s.Edges); err != nil {
		return nil, err
	}
	return appendVals(b, s.Map)
}

// EncodeDelta renders a generation diff. Cols must be strictly
// increasing by Col, each carrying exactly Side values.
func EncodeDelta(d *Delta) ([]byte, error) {
	if err := checkGeometry(int64(d.Side), int64(d.Dims), d.FromGeneration); err != nil {
		return nil, err
	}
	if d.ToGeneration < d.FromGeneration {
		return nil, fterr.New(fterr.Invalid, "wire.EncodeDelta", "delta runs backwards (%d -> %d)", d.FromGeneration, d.ToGeneration)
	}
	nc := numCols(d.Side, d.Dims)
	b, err := appendHeader(make([]byte, 0, 64+len(d.Topology)+2*len(d.Cols)*d.Side), KindDelta, d.Topology)
	if err != nil {
		return nil, err
	}
	b = binary.AppendUvarint(b, uint64(d.FromGeneration))
	b = binary.AppendUvarint(b, uint64(d.ToGeneration))
	b = binary.AppendUvarint(b, uint64(d.Side))
	b = binary.AppendUvarint(b, uint64(d.Dims))
	b = binary.LittleEndian.AppendUint64(b, d.Checksum)
	if b, err = appendFaults(b, d.Faults); err != nil {
		return nil, err
	}
	if b, err = appendEdges(b, d.Edges); err != nil {
		return nil, err
	}
	b = binary.AppendUvarint(b, uint64(len(d.Cols)))
	prev := -1
	for _, cu := range d.Cols {
		if cu.Col <= prev || cu.Col >= nc {
			return nil, fterr.New(fterr.Invalid, "wire.EncodeDelta", "column %d out of order or out of [0, %d)", cu.Col, nc)
		}
		if len(cu.Vals) != d.Side {
			return nil, fterr.New(fterr.Invalid, "wire.EncodeDelta", "column %d has %d values, want side = %d", cu.Col, len(cu.Vals), d.Side)
		}
		b = binary.AppendUvarint(b, uint64(cu.Col-prev-1))
		prev = cu.Col
		if b, err = appendVals(b, cu.Vals); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// ---------------------------------------------------------------------------
// Decoding.

// reader is a bounds-checked cursor over a payload.
type reader struct {
	b   []byte
	pos int
}

func (r *reader) remaining() int { return len(r.b) - r.pos }

func (r *reader) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(r.b[r.pos:])
	if err := r.advance(n, what); err != nil {
		return 0, err
	}
	return v, nil
}

func (r *reader) varint(what string) (int64, error) {
	v, n := binary.Varint(r.b[r.pos:])
	if err := r.advance(n, what); err != nil {
		return 0, err
	}
	return v, nil
}

// advance consumes an n-byte varint. A multi-byte varint whose last
// byte is zero is non-minimal — the encoder would have written it
// shorter — so accepting it would let two payloads decode to one value.
func (r *reader) advance(n int, what string) error {
	if n <= 0 {
		return corrupt("truncated %s", what)
	}
	if n > 1 && r.b[r.pos+n-1] == 0 {
		return corrupt("non-minimal varint in %s", what)
	}
	r.pos += n
	return nil
}

func (r *reader) uint64(what string) (uint64, error) {
	if r.remaining() < 8 {
		return 0, corrupt("truncated %s", what)
	}
	v := binary.LittleEndian.Uint64(r.b[r.pos:])
	r.pos += 8
	return v, nil
}

// header parses the magic, the expected kind and the topology id.
func (r *reader) header(kind byte) (string, error) {
	if r.remaining() < len(magic)+1 {
		return "", corrupt("short header")
	}
	if [4]byte(r.b[r.pos:r.pos+4]) != magic {
		return "", corrupt("bad magic")
	}
	r.pos += 4
	if got := r.b[r.pos]; got != kind {
		return "", corrupt("payload kind %d, want %d", got, kind)
	}
	r.pos++
	n, err := r.uvarint("topology length")
	if err != nil {
		return "", err
	}
	if n > maxTopology || int(n) > r.remaining() {
		return "", corrupt("topology id length %d implausible", n)
	}
	id := string(r.b[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return id, nil
}

func (r *reader) geometry() (side, dims int, err error) {
	s, err := r.uvarint("side")
	if err != nil {
		return 0, 0, err
	}
	d, err := r.uvarint("dims")
	if err != nil {
		return 0, 0, err
	}
	if err := checkGeometry(int64(s), int64(d), 0); err != nil {
		return 0, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if mapLen(int(s), int(d)) < 0 {
		return 0, 0, corrupt("side^dims overflows")
	}
	return int(s), int(d), nil
}

// mapLen returns side^dims, or a negative value on overflow / beyond
// the entry cap.
func mapLen(side, dims int) int {
	n := 1
	for i := 0; i < dims; i++ {
		n *= side
		if n < 0 || n > maxEntries {
			return -1
		}
	}
	return n
}

func (r *reader) faults() ([]int, error) {
	count, err := r.uvarint("fault count")
	if err != nil {
		return nil, err
	}
	if count > uint64(r.remaining()) {
		return nil, corrupt("fault count %d exceeds payload", count)
	}
	out := make([]int, 0, count)
	prev := -1
	for i := uint64(0); i < count; i++ {
		gap, err := r.uvarint("fault entry")
		if err != nil {
			return nil, err
		}
		if gap > uint64(MaxValue) {
			return nil, corrupt("fault gap %d out of range", gap)
		}
		v := int64(prev) + 1 + int64(gap)
		if v < 0 || v >= MaxValue {
			return nil, corrupt("fault index %d out of range", v)
		}
		out = append(out, int(v))
		prev = int(v)
	}
	return out, nil
}

func (r *reader) edges() ([][2]int, error) {
	count, err := r.uvarint("edge count")
	if err != nil {
		return nil, err
	}
	if count > uint64(r.remaining()) {
		return nil, corrupt("edge count %d exceeds payload", count)
	}
	if count == 0 {
		return nil, nil
	}
	out := make([][2]int, 0, count)
	prevU, prevV := 0, -1
	for i := uint64(0); i < count; i++ {
		du, err := r.uvarint("edge u gap")
		if err != nil {
			return nil, err
		}
		dv, err := r.uvarint("edge v gap")
		if err != nil {
			return nil, err
		}
		if du > uint64(MaxValue) || dv > uint64(MaxValue) {
			return nil, corrupt("edge gap out of range")
		}
		u := int64(prevU) + int64(du)
		var v int64
		if i == 0 || du > 0 {
			v = u + 1 + int64(dv)
		} else {
			v = int64(prevV) + 1 + int64(dv)
		}
		if u < 0 || v <= u || v >= MaxValue {
			return nil, corrupt("edge {%d, %d} out of range", u, v)
		}
		out = append(out, [2]int{int(u), int(v)})
		prevU, prevV = int(u), int(v)
	}
	return out, nil
}

// vals decodes n zigzag-delta-packed entries into dst (len n).
func (r *reader) vals(dst []int, what string) error {
	prev := int64(0)
	for i := range dst {
		dv, err := r.varint(what)
		if err != nil {
			return err
		}
		v := prev + dv
		if v < 0 || v >= MaxValue {
			return corrupt("%s entry %d out of range", what, v)
		}
		dst[i] = int(v)
		prev = v
	}
	return nil
}

// Kind peeks the payload kind (KindFull or KindDelta).
func Kind(data []byte) (byte, error) {
	if len(data) < len(magic)+1 {
		return 0, corrupt("short header")
	}
	if [4]byte(data[:4]) != magic {
		return 0, corrupt("bad magic")
	}
	k := data[4]
	if k != KindFull && k != KindDelta {
		return 0, corrupt("unknown payload kind %d", k)
	}
	return k, nil
}

// DecodeSnapshot parses and verifies a full snapshot payload. The
// returned snapshot's checksum matches its map by construction.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	r := &reader{b: data}
	topo, err := r.header(KindFull)
	if err != nil {
		return nil, err
	}
	gen, err := r.uvarint("generation")
	if err != nil {
		return nil, err
	}
	if gen > uint64(MaxValue) {
		return nil, corrupt("generation %d out of range", gen)
	}
	side, dims, err := r.geometry()
	if err != nil {
		return nil, err
	}
	sum, err := r.uint64("checksum")
	if err != nil {
		return nil, err
	}
	faults, err := r.faults()
	if err != nil {
		return nil, err
	}
	edges, err := r.edges()
	if err != nil {
		return nil, err
	}
	n := mapLen(side, dims)
	if n > r.remaining() {
		return nil, corrupt("map of %d entries exceeds payload", n)
	}
	m := make([]int, n)
	if err := r.vals(m, "map"); err != nil {
		return nil, err
	}
	if r.remaining() != 0 {
		return nil, corrupt("%d trailing bytes", r.remaining())
	}
	if got := Checksum(m); got != sum {
		return nil, corrupt("map checksum %016x does not match header %016x", got, sum)
	}
	return &Snapshot{
		Topology:   topo,
		Generation: int64(gen),
		Side:       side,
		Dims:       dims,
		Faults:     faults,
		Edges:      edges,
		Map:        m,
		Checksum:   sum,
	}, nil
}

// DecodeDelta parses a delta payload. Its checksum covers the full map
// at ToGeneration and is verified by Apply, not here.
func DecodeDelta(data []byte) (*Delta, error) {
	r := &reader{b: data}
	topo, err := r.header(KindDelta)
	if err != nil {
		return nil, err
	}
	from, err := r.uvarint("from generation")
	if err != nil {
		return nil, err
	}
	to, err := r.uvarint("to generation")
	if err != nil {
		return nil, err
	}
	if from > to || to > uint64(MaxValue) {
		return nil, corrupt("generation range %d -> %d invalid", from, to)
	}
	side, dims, err := r.geometry()
	if err != nil {
		return nil, err
	}
	sum, err := r.uint64("checksum")
	if err != nil {
		return nil, err
	}
	faults, err := r.faults()
	if err != nil {
		return nil, err
	}
	edges, err := r.edges()
	if err != nil {
		return nil, err
	}
	count, err := r.uvarint("column count")
	if err != nil {
		return nil, err
	}
	nc := numCols(side, dims)
	if count > uint64(nc) || count > uint64(r.remaining()) {
		return nil, corrupt("column count %d implausible", count)
	}
	cols := make([]ColumnUpdate, 0, count)
	prev := -1
	for i := uint64(0); i < count; i++ {
		gap, err := r.uvarint("column index")
		if err != nil {
			return nil, err
		}
		if gap > uint64(MaxValue) {
			return nil, corrupt("column gap %d out of range", gap)
		}
		col := int64(prev) + 1 + int64(gap)
		if col < 0 || col >= int64(nc) {
			return nil, corrupt("column %d out of [0, %d)", col, nc)
		}
		if side > r.remaining() {
			return nil, corrupt("column of %d values exceeds payload", side)
		}
		vals := make([]int, side)
		if err := r.vals(vals, "column"); err != nil {
			return nil, err
		}
		cols = append(cols, ColumnUpdate{Col: int(col), Vals: vals})
		prev = int(col)
	}
	if r.remaining() != 0 {
		return nil, corrupt("%d trailing bytes", r.remaining())
	}
	return &Delta{
		Topology:       topo,
		FromGeneration: int64(from),
		ToGeneration:   int64(to),
		Side:           side,
		Dims:           dims,
		Faults:         faults,
		Edges:          edges,
		Cols:           cols,
		Checksum:       sum,
	}, nil
}

// ---------------------------------------------------------------------------
// Applying deltas.

// Apply patches base forward with d and returns the full snapshot at
// d.ToGeneration, with ApplyInPlace's checks on a copy of base. base is
// not modified.
func Apply(base *Snapshot, d *Delta) (*Snapshot, error) {
	s := *base
	s.Map = append([]int(nil), base.Map...)
	s.Faults, s.Edges = nil, nil
	if err := ApplyInPlace(&s, d); err != nil {
		return nil, err
	}
	return &s, nil
}

// ApplyInPlace patches s forward with d to the full snapshot at
// d.ToGeneration. It refuses (ErrMismatch, resync_required) a delta for
// a different topology, geometry or base generation, or with a malformed
// column update, and re-verifies the patched map against the delta's
// checksum: a failure there is corrupt_payload, still wrapping
// ErrMismatch. A stale or mangled chain can never silently produce a
// state the server did not serve; on any error s may be left partly
// patched and the caller must resync.
func ApplyInPlace(s *Snapshot, d *Delta) error {
	if s.Topology != d.Topology {
		return fmt.Errorf("%w: topology %q vs %q", ErrMismatch, s.Topology, d.Topology)
	}
	if s.Side != d.Side || s.Dims != d.Dims {
		return fmt.Errorf("%w: geometry %d^%d vs %d^%d", ErrMismatch, s.Side, s.Dims, d.Side, d.Dims)
	}
	if s.Generation != d.FromGeneration {
		return fmt.Errorf("%w: delta starts at generation %d, snapshot is at %d",
			ErrMismatch, d.FromGeneration, s.Generation)
	}
	nc := numCols(d.Side, d.Dims)
	for _, cu := range d.Cols {
		if cu.Col < 0 || cu.Col >= nc || len(cu.Vals) != d.Side {
			return fmt.Errorf("%w: malformed column update %d", ErrMismatch, cu.Col)
		}
		for j, v := range cu.Vals {
			s.Map[j*nc+cu.Col] = v
		}
	}
	if got := Checksum(s.Map); got != d.Checksum {
		return fterr.Wrapf(fterr.Corrupt, "wire.apply", ErrMismatch,
			"patched map checksum %016x does not match delta %016x", got, d.Checksum)
	}
	s.Generation = d.ToGeneration
	s.Faults = append(s.Faults[:0], d.Faults...)
	s.Edges = append(s.Edges[:0], d.Edges...)
	s.Checksum = d.Checksum
	return nil
}
