package pipeline

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"cuisines/internal/core"
	"cuisines/internal/distance"
	"cuisines/internal/encode"
	"cuisines/internal/itemset"
	"cuisines/internal/matrix"
	"cuisines/internal/recipedb"
)

// Flat artifact codecs (DESIGN.md §10). The large artifacts — the
// recipe corpus, mined pattern sets, the pattern feature matrix,
// condensed distance matrices — used to round-trip through gob, whose
// reflective decode allocates per element (every recipe, every Set,
// every []float64 row fragment, every string). The codecs here write a
// position-defined layout instead, so a warm-disk read decodes in O(1)
// large allocations: one backing arena per homogeneous section (one
// string for all interned names, one []Item arena, one []Pattern arena,
// one []float64), with every element subsliced out of it.
//
// Each payload is framed as
//
//	"CFL1" | u32 crc32c(body) | body
//
// giving the codec its own integrity check independent of the artifact
// store's sha256 envelope, so a flat payload is self-validating even
// when written or read outside the store. Any framing, checksum, length
// or order violation is a decode error, which the store treats as a
// cache miss and recomputes — never a crash.
//
// Checksums prove only that the bytes arrived as sent, not that the
// sender is honest: a peer can recompute both the store's sha256 and
// the crc32c over a crafted body. So every header count that sizes an
// allocation goes through flatReader.bound first, which caps it by the
// bytes left in the body divided by the smallest encoding one element
// can have. A decoder's allocations are thereby a small multiple of
// its input, whatever the header claims.

var (
	flatMagic    = [4]byte{'C', 'F', 'L', '1'}
	crc32cTable  = crc32.MakeTable(crc32.Castagnoli)
	errFlatFrame = fmt.Errorf("pipeline: flat artifact framing invalid")
)

// flatCodec is an artifact.Codec whose encode appends to a byte slice
// and whose decode reads from one. It implements the store's optional
// AppendEncoder/BytesDecoder fast paths; the io.Writer/io.Reader forms
// delegate to them for callers outside the store.
type flatCodec struct {
	kind     string
	version  int
	appendFn func(dst []byte, v any) ([]byte, error)
	decodeFn func(data []byte) (any, error)
}

func (c flatCodec) Kind() string { return c.kind }
func (c flatCodec) Version() int { return c.version }

// AppendEncode frames the body with magic + crc32c.
func (c flatCodec) AppendEncode(dst []byte, v any) ([]byte, error) {
	dst = append(dst, flatMagic[:]...)
	dst = append(dst, 0, 0, 0, 0) // crc placeholder
	bodyStart := len(dst)
	dst, err := c.appendFn(dst, v)
	if err != nil {
		return nil, err
	}
	crc := crc32.Checksum(dst[bodyStart:], crc32cTable)
	binary.LittleEndian.PutUint32(dst[bodyStart-4:], crc)
	return dst, nil
}

// DecodeBytes verifies the frame and hands the body to the decoder.
func (c flatCodec) DecodeBytes(data []byte) (any, error) {
	if len(data) < 8 || [4]byte(data[:4]) != flatMagic {
		return nil, errFlatFrame
	}
	body := data[8:]
	if crc32.Checksum(body, crc32cTable) != binary.LittleEndian.Uint32(data[4:]) {
		return nil, fmt.Errorf("pipeline: flat artifact crc mismatch")
	}
	return c.decodeFn(body)
}

func (c flatCodec) Encode(w io.Writer, v any) error {
	b, err := c.AppendEncode(nil, v)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

func (c flatCodec) Decode(r io.Reader) (any, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return c.DecodeBytes(data)
}

// flatReader is a bounds-checked cursor over a decode body. The first
// out-of-range read latches err and every later read returns zeros, so
// decoders can parse straight-line and check err once.
type flatReader struct {
	data []byte
	off  int
	err  error
}

func (r *flatReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("pipeline: flat artifact truncated reading %s at %d", what, r.off)
	}
}

func (r *flatReader) bytes(n int, what string) []byte {
	if r.err != nil || n < 0 || len(r.data)-r.off < n {
		r.fail(what)
		return nil
	}
	b := r.data[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

func (r *flatReader) u32(what string) uint32 {
	b := r.bytes(4, what)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *flatReader) u64(what string) uint64 {
	b := r.bytes(8, what)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *flatReader) f64(what string) float64 {
	return math.Float64frombits(r.u64(what))
}

// bound converts a header count n to an int after checking that the
// bytes left could hold n elements of at least minSize encoded bytes
// each. Decoders call it before sizing an arena from n.
func (r *flatReader) bound(n uint64, minSize int, what string) int {
	if r.err != nil {
		return 0
	}
	if left := len(r.data) - r.off; n > uint64(left/minSize) {
		r.err = fmt.Errorf("pipeline: flat artifact %s %d exceeds the %d bytes left", what, n, left)
		return 0
	}
	return int(n)
}

// uvarint reads an unsigned varint in its minimal encoding; an overlong
// one (a trailing zero continuation byte) is an error, so every value
// has exactly one encoding.
func (r *flatReader) uvarint(what string) uint64 {
	// Fast path for one-byte values: a corpus body's per-recipe counts
	// and lengths, and the first 128 name ids.
	if r.err == nil && r.off < len(r.data) {
		if b := r.data[r.off]; b < 0x80 {
			r.off++
			return uint64(b)
		}
	}
	return r.uvarintSlow(what)
}

func (r *flatReader) uvarintSlow(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail(what)
		return 0
	}
	if n > 1 && r.data[r.off+n-1] == 0 {
		r.err = fmt.Errorf("pipeline: flat artifact %s at %d is not minimally encoded", what, r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *flatReader) rest() []byte {
	b := r.data[r.off:]
	r.off = len(r.data)
	return b
}

func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

func (r *flatReader) string(what string) string {
	n := r.u32(what)
	return string(r.bytes(int(n), what))
}

// internTable assigns dense ids to strings in first-seen order during
// an encode pass.
type internTable struct {
	ids  map[string]uint32
	list []string
}

func newInternTable() *internTable {
	return &internTable{ids: make(map[string]uint32)}
}

func (t *internTable) id(s string) uint32 {
	if id, ok := t.ids[s]; ok {
		return id
	}
	id := uint32(len(t.list))
	t.ids[s] = id
	t.list = append(t.list, s)
	return id
}

// appendInterned writes an intern table: u32 count, u32 blob length,
// the concatenated names, then count × u32 name lengths.
func appendInterned(dst []byte, names []string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(names)))
	blobLen := 0
	for _, s := range names {
		blobLen += len(s)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(blobLen))
	for _, s := range names {
		dst = append(dst, s...)
	}
	for _, s := range names {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	}
	return dst
}

// readInterned decodes an intern table in two allocations: one string
// conversion of the whole blob and one []string of substrings sharing
// its backing.
func (r *flatReader) readInterned(what string) []string {
	rawCount := r.u32(what)
	blobLen := int(r.u32(what))
	blob := string(r.bytes(blobLen, what))
	count := r.bound(uint64(rawCount), 4, what)
	if r.err != nil {
		return nil
	}
	names := make([]string, count)
	off := 0
	for i := range names {
		n := int(r.u32(what))
		if r.err != nil || off+n > len(blob) {
			r.fail(what)
			return nil
		}
		names[i] = blob[off : off+n]
		off += n
	}
	if off != len(blob) {
		r.fail(what)
		return nil
	}
	return names
}

// Smallest encodings of the pattern-tail elements, for bound.
const (
	minPatternTailBytes = 8 + 8 + 4 // support, count, numItems
	minItemBytes        = 4 + 1     // nameID, kind
)

// appendPatternTail writes one pattern (minus any leading per-use
// fields): f64 support | u64 count | u32 numItems | numItems × (u32
// nameID, u8 kind). Item names must already be interned in names.
func appendPatternTail(dst []byte, p itemset.Pattern, names *internTable) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Support))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Count))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(p.Items.Len()))
	for _, it := range p.Items.Items() {
		dst = binary.LittleEndian.AppendUint32(dst, names.id(it.Name))
		dst = append(dst, byte(it.Kind))
	}
	return dst
}

// readPatternTail reverses appendPatternTail, carving the pattern's
// items from the shared arena. The Set is rebuilt through
// itemset.SetFromSorted, which re-verifies canonical order so a
// corrupted body cannot produce a malformed Set.
func (r *flatReader) readPatternTail(names []string, itemArena []itemset.Item, itemUsed *int) (itemset.Pattern, error) {
	sup := r.f64("pattern support")
	cnt := int(r.u64("pattern count value"))
	ni := int(r.u32("item count"))
	if r.err != nil {
		return itemset.Pattern{}, r.err
	}
	if ni < 0 || ni > len(itemArena)-*itemUsed {
		return itemset.Pattern{}, fmt.Errorf("pipeline: flat artifact item total %d exceeded", len(itemArena))
	}
	items := itemArena[*itemUsed : *itemUsed+ni : *itemUsed+ni]
	*itemUsed += ni
	for k := range items {
		nameID := int(r.u32("item name id"))
		kindB := r.bytes(1, "item kind")
		if r.err != nil {
			return itemset.Pattern{}, r.err
		}
		if nameID >= len(names) {
			return itemset.Pattern{}, fmt.Errorf("pipeline: flat artifact name id %d out of range %d", nameID, len(names))
		}
		items[k] = itemset.Item{Name: names[nameID], Kind: itemset.Kind(kindB[0])}
	}
	set, err := itemset.SetFromSorted(items)
	if err != nil {
		return itemset.Pattern{}, err
	}
	return itemset.Pattern{Items: set, Support: sup, Count: cnt}, nil
}

// --- corpus: *recipedb.DB ---------------------------------------------
//
// Body layout:
//
//	uvarint numRecipes | uvarint numEntries (list entries, all recipes)
//	intern table of region, ingredient, process and utensil names
//	  (first-seen order: per recipe, region then the three lists)
//	uvarint blobLen | every recipe's ID then Name, concatenated
//	per recipe: uvarint len(ID) | uvarint len(Name) | uvarint regionID |
//	  uvarint numIngredients | uvarint numProcesses | uvarint numUtensils |
//	  that many uvarint name ids
//
// A corpus repeats a few thousand names across hundreds of thousands
// of list entries, so interning shrinks it to about a third of its gob
// size, and decode allocates one string per section (names, ID/Name blob),
// one []string arena that every list is cut from, and one
// []recipedb.Recipe. The decoded DB shares no memory with the frame.
//
// Decode accepts exactly the bytes appendCorpus writes: names in
// first-seen order, each used and none repeated, and minimal varints.
// Any other body is an error, so a DB that decodes re-encodes to the
// same bytes.

// minRecipeBytes is the smallest encoded recipe: six one-byte varints.
const minRecipeBytes = 6

func appendCorpus(dst []byte, v any) ([]byte, error) {
	db, ok := v.(*recipedb.DB)
	if !ok {
		return nil, fmt.Errorf("pipeline: corpus artifact is %T, want *recipedb.DB", v)
	}
	return appendRecipes(dst, db.Recipes()), nil
}

// appendRecipes writes the corpus body for recipes in stored order.
func appendRecipes(dst []byte, recipes []recipedb.Recipe) []byte {
	blobLen, numEntries := 0, 0
	for i := range recipes {
		rec := &recipes[i]
		blobLen += len(rec.ID) + len(rec.Name)
		numEntries += len(rec.Ingredients) + len(rec.Processes) + len(rec.Utensils)
	}
	// The interning pass writes the per-recipe section to its own
	// buffer, since both the intern table and the blob precede it. Its
	// capacity assumes one-byte counts and two-byte name ids, which
	// holds up to 16384 distinct names.
	names := newInternTable()
	recs := make([]byte, 0, 6*len(recipes)+2*numEntries)
	for i := range recipes {
		rec := &recipes[i]
		recs = binary.AppendUvarint(recs, uint64(len(rec.ID)))
		recs = binary.AppendUvarint(recs, uint64(len(rec.Name)))
		recs = binary.AppendUvarint(recs, uint64(names.id(rec.Region)))
		recs = binary.AppendUvarint(recs, uint64(len(rec.Ingredients)))
		recs = binary.AppendUvarint(recs, uint64(len(rec.Processes)))
		recs = binary.AppendUvarint(recs, uint64(len(rec.Utensils)))
		for _, list := range [...][]string{rec.Ingredients, rec.Processes, rec.Utensils} {
			for _, s := range list {
				recs = binary.AppendUvarint(recs, uint64(names.id(s)))
			}
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(recipes)))
	dst = binary.AppendUvarint(dst, uint64(numEntries))
	dst = appendInterned(dst, names.list)
	dst = binary.AppendUvarint(dst, uint64(blobLen))
	dst = slices.Grow(dst, blobLen+len(recs))
	for i := range recipes {
		dst = append(dst, recipes[i].ID...)
		dst = append(dst, recipes[i].Name...)
	}
	return append(dst, recs...)
}

// corpusReader resolves name ids while enforcing first-seen order:
// names[:seen] have appeared, and the only new id allowed is seen.
type corpusReader struct {
	flatReader
	names []string
	seen  int
}

func (r *corpusReader) name() string {
	id := r.uvarint("name id")
	switch {
	case r.err != nil:
		return ""
	case id < uint64(r.seen):
		return r.names[id]
	case id == uint64(r.seen) && r.seen < len(r.names):
		r.seen++
		return r.names[id]
	}
	r.err = fmt.Errorf("pipeline: corpus artifact name id %d out of first-seen order (%d of %d seen)", id, r.seen, len(r.names))
	return ""
}

func decodeCorpus(body []byte) (any, error) {
	r := &corpusReader{flatReader: flatReader{data: body}}
	numRecipes := r.bound(r.uvarint("recipe count"), minRecipeBytes, "recipe count")
	numEntries := r.bound(r.uvarint("entry total"), 1, "entry total")
	r.names = r.readInterned("names")
	blobLen := r.bound(r.uvarint("blob length"), 1, "blob length")
	blob := string(r.bytes(blobLen, "id/name blob"))
	if r.err != nil {
		return nil, r.err
	}
	unique := make(map[string]struct{}, len(r.names))
	for _, s := range r.names {
		if _, dup := unique[s]; dup {
			return nil, fmt.Errorf("pipeline: corpus artifact interns %q twice", s)
		}
		unique[s] = struct{}{}
	}

	recipes := make([]recipedb.Recipe, numRecipes)
	arena := make([]string, numEntries)
	for i := range recipes {
		rec := &recipes[i]
		idLen := r.uvarint("id length")
		nameLen := r.uvarint("name length")
		rec.Region = r.name()
		ni := r.uvarint("ingredient count")
		np := r.uvarint("process count")
		nu := r.uvarint("utensil count")
		if r.err != nil {
			return nil, r.err
		}
		if idLen > uint64(len(blob)) || nameLen > uint64(len(blob))-idLen {
			return nil, fmt.Errorf("pipeline: corpus artifact recipe %d overruns the id/name blob", i)
		}
		rec.ID, rec.Name, blob = blob[:idLen], blob[idLen:idLen+nameLen], blob[idLen+nameLen:]
		left := uint64(len(arena))
		if ni > left || np > left-ni || nu > left-ni-np {
			return nil, fmt.Errorf("pipeline: corpus artifact entry total %d exceeded", numEntries)
		}
		list := arena[:ni+np+nu]
		arena = arena[ni+np+nu:]
		for k := range list {
			list[k] = r.name()
		}
		rec.Ingredients = cutList(list, 0, ni)
		rec.Processes = cutList(list, ni, ni+np)
		rec.Utensils = cutList(list, ni+np, ni+np+nu)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) || len(arena) != 0 || len(blob) != 0 || r.seen != len(r.names) {
		return nil, fmt.Errorf("pipeline: corpus artifact has trailing or unused data")
	}
	// New re-runs recipe validation (empty ID or region, no
	// ingredients, duplicate IDs) and rebuilds the region index.
	db, err := recipedb.New(recipes)
	if err != nil {
		return nil, err
	}
	return db, nil
}

// cutList returns list[lo:hi] capped at hi, so an append to one list
// cannot overwrite the next, or nil when empty, as the corpus
// generator and readers build empty lists.
func cutList(list []string, lo, hi uint64) []string {
	if lo == hi {
		return nil
	}
	return list[lo:hi:hi]
}

// --- mine: []core.RegionPatterns ---------------------------------------
//
// Body layout:
//
//	u32 numRegions | u64 totalPatterns | u64 totalItems
//	intern table of item names (first-seen order)
//	per region: string name | u64 recipes | u32 numPatterns
//	  per pattern: pattern tail (see appendPatternTail)
//
// The totals up front let the decoder allocate the pattern and item
// arenas before the walk; every Set subslices the item arena.

func appendMine(dst []byte, v any) ([]byte, error) {
	rps, ok := v.([]core.RegionPatterns)
	if !ok {
		return nil, fmt.Errorf("pipeline: mine artifact is %T, want []core.RegionPatterns", v)
	}
	var totalPatterns, totalItems uint64
	names := newInternTable()
	for _, rp := range rps {
		totalPatterns += uint64(len(rp.Patterns))
		for _, p := range rp.Patterns {
			totalItems += uint64(p.Items.Len())
			for _, it := range p.Items.Items() {
				names.id(it.Name)
			}
		}
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rps)))
	dst = binary.LittleEndian.AppendUint64(dst, totalPatterns)
	dst = binary.LittleEndian.AppendUint64(dst, totalItems)
	dst = appendInterned(dst, names.list)
	for _, rp := range rps {
		dst = appendString(dst, rp.Region)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(rp.Recipes))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rp.Patterns)))
		for _, p := range rp.Patterns {
			dst = appendPatternTail(dst, p, names)
		}
	}
	return dst, nil
}

// minRegionPatternsBytes is the smallest encoded region: an empty
// name, the recipe count and a zero pattern count.
const minRegionPatternsBytes = 4 + 8 + 4

func decodeMine(body []byte) (any, error) {
	r := &flatReader{data: body}
	numRegions := r.bound(uint64(r.u32("region count")), minRegionPatternsBytes, "region count")
	totalPatterns := r.bound(r.u64("pattern total"), minPatternTailBytes, "pattern total")
	totalItems := r.bound(r.u64("item total"), minItemBytes, "item total")
	names := r.readInterned("item names")
	if r.err != nil {
		return nil, r.err
	}
	// The arenas: every pattern and item across all regions lives in
	// one backing array each.
	patArena := make([]itemset.Pattern, totalPatterns)
	itemArena := make([]itemset.Item, totalItems)
	patUsed, itemUsed := 0, 0
	rps := make([]core.RegionPatterns, numRegions)
	for i := range rps {
		rps[i].Region = r.string("region name")
		rps[i].Recipes = int(r.u64("recipe count"))
		np := int(r.u32("pattern count"))
		if r.err != nil {
			return nil, r.err
		}
		if np > len(patArena)-patUsed {
			return nil, fmt.Errorf("pipeline: mine artifact pattern total %d exceeded", totalPatterns)
		}
		pats := patArena[patUsed : patUsed+np : patUsed+np]
		patUsed += np
		for j := range pats {
			p, err := r.readPatternTail(names, itemArena, &itemUsed)
			if err != nil {
				return nil, err
			}
			pats[j] = p
		}
		rps[i].Patterns = pats
		if np == 0 {
			rps[i].Patterns = nil
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) || patUsed != len(patArena) || itemUsed != len(itemArena) {
		return nil, fmt.Errorf("pipeline: mine artifact has trailing or missing data")
	}
	return rps, nil
}

// --- matrices: *PatternFeatures ----------------------------------------
//
// Body layout:
//
//	f64 minSupport | u32 numRows | u64 totalTop | u64 totalTopItems
//	intern table of headline-pattern item names
//	per row: string region | u64 recipes | u64 patternCount | u32 numTop
//	  per scored pattern: f64 score | pattern tail
//	u32 numRegions | numRegions × string
//	intern table of vocabulary string patterns
//	flat Dense (trailing, self-sized)
//
// Table I is tiny on the wire but was the matrices artifact's dominant
// decode cost under gob: every nested Set spun up its own reflective
// decoder (~14k allocations for a 9 KB table). Flat, the table decodes
// through the same arena walk as the mine artifact, the vocabulary
// (hundreds of encoded string patterns) through the intern table's two
// allocations, and the feature matrix through matrix.DecodeFlat's
// single []float64.

func appendMatrices(dst []byte, v any) ([]byte, error) {
	pf, ok := v.(*PatternFeatures)
	if !ok {
		return nil, fmt.Errorf("pipeline: matrices artifact is %T, want *PatternFeatures", v)
	}
	if pf.Table1 == nil || pf.Matrix == nil || pf.Matrix.X == nil {
		return nil, fmt.Errorf("pipeline: matrices artifact has nil sections")
	}
	t1 := pf.Table1
	var totalTop, totalItems uint64
	names := newInternTable()
	for _, row := range t1.Rows {
		totalTop += uint64(len(row.Top))
		for _, sp := range row.Top {
			totalItems += uint64(sp.Pattern.Items.Len())
			for _, it := range sp.Pattern.Items.Items() {
				names.id(it.Name)
			}
		}
	}
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(t1.MinSupport))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(t1.Rows)))
	dst = binary.LittleEndian.AppendUint64(dst, totalTop)
	dst = binary.LittleEndian.AppendUint64(dst, totalItems)
	dst = appendInterned(dst, names.list)
	for _, row := range t1.Rows {
		dst = appendString(dst, row.Region)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(row.Recipes))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(row.Patterns))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(row.Top)))
		for _, sp := range row.Top {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(sp.Score))
			dst = appendPatternTail(dst, sp.Pattern, names)
		}
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(pf.Matrix.Regions)))
	for _, region := range pf.Matrix.Regions {
		dst = appendString(dst, region)
	}
	dst = appendInterned(dst, pf.Matrix.Vocabulary)
	return pf.Matrix.X.AppendFlat(dst), nil
}

// minTable1RowBytes is the smallest encoded Table I row: an empty
// region name, recipes, patternCount and a zero top count.
const minTable1RowBytes = 4 + 8 + 8 + 4

func decodeMatrices(body []byte) (any, error) {
	r := &flatReader{data: body}
	minSupport := r.f64("min support")
	numRows := r.bound(uint64(r.u32("row count")), minTable1RowBytes, "row count")
	totalTop := r.bound(r.u64("top total"), 8+minPatternTailBytes, "top total")
	totalItems := r.bound(r.u64("top item total"), minItemBytes, "top item total")
	names := r.readInterned("item names")
	if r.err != nil {
		return nil, r.err
	}
	topArena := make([]core.ScoredPattern, totalTop)
	itemArena := make([]itemset.Item, totalItems)
	topUsed, itemUsed := 0, 0
	t1 := &core.Table1{MinSupport: minSupport, Rows: make([]core.Table1Row, numRows)}
	for i := range t1.Rows {
		row := &t1.Rows[i]
		row.Region = r.string("row region")
		row.Recipes = int(r.u64("row recipes"))
		row.Patterns = int(r.u64("row pattern count"))
		nt := int(r.u32("row top count"))
		if r.err != nil {
			return nil, r.err
		}
		if nt < 0 || nt > len(topArena)-topUsed {
			return nil, fmt.Errorf("pipeline: matrices artifact top total %d exceeded", totalTop)
		}
		tops := topArena[topUsed : topUsed+nt : topUsed+nt]
		topUsed += nt
		for j := range tops {
			score := r.f64("top score")
			p, err := r.readPatternTail(names, itemArena, &itemUsed)
			if err != nil {
				return nil, err
			}
			tops[j] = core.ScoredPattern{Pattern: p, Score: score}
		}
		row.Top = tops
		if nt == 0 {
			row.Top = nil
		}
	}
	if topUsed != len(topArena) || itemUsed != len(itemArena) {
		return nil, fmt.Errorf("pipeline: matrices artifact has missing table data")
	}
	numRegions := r.bound(uint64(r.u32("region count")), 4, "region count")
	if r.err != nil {
		return nil, r.err
	}
	regions := make([]string, numRegions)
	for i := range regions {
		regions[i] = r.string("region name")
	}
	vocab := r.readInterned("vocabulary")
	if r.err != nil {
		return nil, r.err
	}
	x, err := matrix.DecodeFlat(r.rest())
	if err != nil {
		return nil, err
	}
	return &PatternFeatures{
		Table1: t1,
		Matrix: &encode.PatternMatrix{Regions: regions, Vocabulary: vocab, X: x},
	}, nil
}

// --- pdist / geodist: *distance.Condensed ------------------------------

func appendCondensed(dst []byte, v any) ([]byte, error) {
	c, ok := v.(*distance.Condensed)
	if !ok {
		return nil, fmt.Errorf("pipeline: distance artifact is %T, want *distance.Condensed", v)
	}
	return c.AppendFlat(dst), nil
}

func decodeCondensed(body []byte) (any, error) {
	return distance.DecodeFlat(body)
}
