package pipeline

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"cuisines/internal/authenticity"
	"cuisines/internal/core"
	"cuisines/internal/distance"
	"cuisines/internal/encode"
	"cuisines/internal/hac"
	"cuisines/internal/itemset"
	"cuisines/internal/kmeans"
	"cuisines/internal/matrix"
	"cuisines/internal/recipedb"
	"cuisines/internal/treecmp"
)

// Flat artifact codecs (DESIGN.md §10), one per stage kind. The
// artifacts used to round-trip through gob, whose reflective decode
// allocates per element (every recipe, every Set, every []float64 row
// fragment, every string) and accepts any value of the right Go type.
// The codecs here write a position-defined layout instead, so a
// warm-disk read decodes in O(1) large allocations: one backing arena
// per homogeneous section (one string for all interned names, one
// []Item arena, one []Pattern arena, one []float64), with every element
// subsliced out of it.
//
// Each payload is framed as
//
//	"CFL1" | u32 crc32c(body) | body
//
// giving the codec its own integrity check under the artifact store's
// sha256 envelope. Any framing, checksum, length or order violation is
// a decode error, which the store treats as a cache miss and recomputes
// — never a crash.
//
// Checksums prove only that the bytes arrived as sent, not that the
// sender is honest: a peer can recompute both the store's sha256 and
// the crc32c over a crafted body. So every header count that sizes an
// allocation goes through flatReader.bound first, which caps it by the
// bytes left in the body divided by the smallest encoding one element
// can have. A decoder's allocations are thereby a small multiple of
// its input, whatever the header claims.

var (
	flatMagic   = [4]byte{'C', 'F', 'L', '1'}
	crc32cTable = crc32.MakeTable(crc32.Castagnoli)
)

// flatCodec is an artifact.Codec over one body layout: appendFn writes
// the body and decodeFn reads it back.
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
		return nil, fmt.Errorf("pipeline: flat artifact framing invalid")
	}
	body := data[8:]
	if crc32.Checksum(body, crc32cTable) != binary.LittleEndian.Uint32(data[4:]) {
		return nil, fmt.Errorf("pipeline: flat artifact crc mismatch")
	}
	return c.decodeFn(body)
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

// nameTable resolves interned name ids while enforcing the encoder's
// canonical form: the names are distinct, and ids appear in first-seen
// order, so names[:seen] have appeared and the only new id allowed is
// seen. A decoder that also requires every name to be seen accepts
// exactly the intern table the encoder would write.
type nameTable struct {
	names []string
	seen  int
}

// newNameTable wraps a decoded intern table, rejecting repeated names.
func newNameTable(names []string) (*nameTable, error) {
	unique := make(map[string]struct{}, len(names))
	for _, s := range names {
		if _, dup := unique[s]; dup {
			return nil, fmt.Errorf("pipeline: flat artifact interns %q twice", s)
		}
		unique[s] = struct{}{}
	}
	return &nameTable{names: names}, nil
}

// resolve returns the name for id, or an error if id is out of
// first-seen order.
func (t *nameTable) resolve(id uint64) (string, error) {
	switch {
	case id < uint64(t.seen):
		return t.names[id], nil
	case id == uint64(t.seen) && t.seen < len(t.names):
		t.seen++
		return t.names[id], nil
	}
	return "", fmt.Errorf("pipeline: flat artifact name id %d out of first-seen order (%d of %d seen)", id, t.seen, len(t.names))
}

// allSeen reports whether every interned name was used.
func (t *nameTable) allSeen() bool { return t.seen == len(t.names) }

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
		dst = appendItem(dst, it, names)
	}
	return dst
}

// appendItem writes one item as u32 nameID | u8 kind.
func appendItem(dst []byte, it itemset.Item, names *internTable) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, names.id(it.Name))
	return append(dst, byte(it.Kind))
}

// item reverses appendItem, rejecting an unknown kind or a name id out
// of first-seen order.
func (r *flatReader) item(names *nameTable) (itemset.Item, error) {
	nameID := r.u32("item name id")
	kindB := r.bytes(1, "item kind")
	if r.err != nil {
		return itemset.Item{}, r.err
	}
	kind := itemset.Kind(kindB[0])
	if !kind.Valid() {
		return itemset.Item{}, fmt.Errorf("pipeline: flat artifact item kind %d invalid", kindB[0])
	}
	name, err := names.resolve(uint64(nameID))
	return itemset.Item{Name: name, Kind: kind}, err
}

// readPatternTail reverses appendPatternTail, carving the pattern's
// items from the shared arena. The Set is rebuilt through
// itemset.SetFromSorted, which re-verifies canonical order so a
// corrupted body cannot produce a malformed Set.
func (r *flatReader) readPatternTail(names *nameTable, itemArena []itemset.Item, itemUsed *int) (itemset.Pattern, error) {
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
		it, err := r.item(names)
		if err != nil {
			return itemset.Pattern{}, err
		}
		items[k] = it
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

// corpusReader resolves the body's varint name ids through the intern
// table.
type corpusReader struct {
	flatReader
	names *nameTable
}

func (r *corpusReader) name() string {
	id := r.uvarint("name id")
	if r.err != nil {
		return ""
	}
	s, err := r.names.resolve(id)
	r.err = err
	return s
}

func decodeCorpus(body []byte) (any, error) {
	r := &corpusReader{flatReader: flatReader{data: body}}
	numRecipes := r.bound(r.uvarint("recipe count"), minRecipeBytes, "recipe count")
	numEntries := r.bound(r.uvarint("entry total"), 1, "entry total")
	names := r.readInterned("names")
	blobLen := r.bound(r.uvarint("blob length"), 1, "blob length")
	blob := string(r.bytes(blobLen, "id/name blob"))
	if r.err != nil {
		return nil, r.err
	}
	var err error
	if r.names, err = newNameTable(names); err != nil {
		return nil, err
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
	if r.off != len(body) || len(arena) != 0 || len(blob) != 0 || !r.names.allSeen() {
		return nil, fmt.Errorf("pipeline: corpus artifact has trailing or unused data")
	}
	// Item names are checked once per intern-table entry, not once per
	// occurrence. A table holding a blank name, which is legal only as
	// a region, takes New's per-recipe scan instead, so the error names
	// the recipe. Either constructor re-checks IDs, regions and
	// ingredient counts and rebuilds the region index.
	for _, s := range names {
		if recipedb.BlankName(s) {
			return recipedb.New(recipes)
		}
	}
	return recipedb.NewChecked(recipes, nil)
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
// arenas before the walk; every Set subslices the item arena. As for
// the corpus, the intern table must be the encoder's (distinct names,
// each used, ids in first-seen order), so a body that decodes
// re-encodes to the same bytes; the matrices table below follows the
// same rule.

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
	names, err := newNameTable(r.readInterned("item names"))
	if r.err != nil {
		return nil, r.err
	}
	if err != nil {
		return nil, err
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
	if r.off != len(body) || patUsed != len(patArena) || itemUsed != len(itemArena) || !names.allSeen() {
		return nil, fmt.Errorf("pipeline: mine artifact has trailing, missing or unused data")
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
	names, err := newNameTable(r.readInterned("item names"))
	if r.err != nil {
		return nil, r.err
	}
	if err != nil {
		return nil, err
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
	if topUsed != len(topArena) || itemUsed != len(itemArena) || !names.allSeen() {
		return nil, fmt.Errorf("pipeline: matrices artifact has missing or unused table data")
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

// --- auth: *authenticity.Matrix ----------------------------------------
//
// Body layout:
//
//	intern table of regions | intern table of item names (first-seen order)
//	u32 numItems | numItems × item (u32 nameID, u8 kind)
//	flat Dense prevalence (trailing, self-sized)
//
// Relative is not stored: decode rebuilds it with the Clone and
// CenterColumns calls authenticity.Build makes, so its bits are a cold
// build's. Decode accepts only what Build produces: strictly ascending
// regions, items strictly ascending by Item.Less with valid kinds, and
// a len(Regions) × len(Items) prevalence matrix of fractions in [0, 1].

func appendAuth(dst []byte, v any) ([]byte, error) {
	m, ok := v.(*authenticity.Matrix)
	if !ok || m.Prevalence == nil {
		return nil, fmt.Errorf("pipeline: auth artifact is %T with no prevalence, want *authenticity.Matrix", v)
	}
	names := newInternTable()
	for _, it := range m.Items {
		names.id(it.Name)
	}
	dst = appendInterned(appendInterned(dst, m.Regions), names.list)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.Items)))
	for _, it := range m.Items {
		dst = appendItem(dst, it, names)
	}
	return m.Prevalence.AppendFlat(dst), nil
}

func decodeAuth(body []byte) (any, error) {
	r := &flatReader{data: body}
	regions := r.readInterned("regions")
	names, err := newNameTable(r.readInterned("item names"))
	items := make([]itemset.Item, r.bound(uint64(r.u32("item count")), minItemBytes, "item count"))
	if r.err != nil || err != nil {
		return nil, errors.Join(r.err, err)
	}
	for i := range items {
		if items[i], err = r.item(names); err != nil {
			return nil, err
		}
		if i > 0 && !items[i-1].Less(items[i]) {
			return nil, fmt.Errorf("pipeline: auth artifact items out of order at %d", i)
		}
	}
	prev, err := matrix.DecodeFlat(r.rest())
	if err != nil {
		return nil, err
	}
	if !names.allSeen() || prev.Rows() != len(regions) || prev.Cols() != len(items) {
		return nil, fmt.Errorf("pipeline: auth artifact has unused item names or a %dx%d prevalence for %d regions and %d items",
			prev.Rows(), prev.Cols(), len(regions), len(items))
	}
	for i := range regions {
		if i > 0 && regions[i-1] >= regions[i] {
			return nil, fmt.Errorf("pipeline: auth artifact regions out of order at %d", i)
		}
		for _, p := range prev.Row(i) {
			if !(p >= 0 && p <= 1) {
				return nil, fmt.Errorf("pipeline: auth artifact prevalence %v outside [0, 1]", p)
			}
		}
	}
	rel := prev.Clone()
	rel.CenterColumns()
	return &authenticity.Matrix{Regions: regions, Items: items, Prevalence: prev, Relative: rel}, nil
}

// --- tree: *core.CuisineTree --------------------------------------------
//
// Body layout:
//
//	string name | u8 metric | u8 linkage | intern table of the n labels
//	(n-1) × merge (u32 a, u32 b, f64 height), in scipy order
//
// The tree travels in linkage form (hac.Tree.Merges); decode rebuilds
// its nodes through hac.BuildTree, which rejects merges that reference
// unknown clusters or leave more than one root. Decode also requires
// what core.LinkTree builds: a known metric and linkage method and at
// least one label, and no byte after the last merge. The matrix the
// tree was linked from is not in the frame: it is the pdist or geodist
// artifact whose key the tree's key embeds.

const minMergeBytes = 4 + 4 + 8 // a, b, height

func appendTree(dst []byte, v any) ([]byte, error) {
	ct, ok := v.(*core.CuisineTree)
	if !ok || ct.Tree == nil {
		return nil, fmt.Errorf("pipeline: tree artifact is %T with nil sections, want *core.CuisineTree", v)
	}
	merges, err := ct.Tree.Merges()
	if err != nil {
		return nil, err
	}
	dst = append(appendString(dst, ct.Name), byte(ct.Metric), byte(ct.Linkage))
	dst = appendInterned(dst, ct.Tree.Labels)
	for _, m := range merges {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(m.A))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(m.B))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(m.Height))
	}
	return dst, nil
}

func decodeTree(body []byte) (any, error) {
	r := &flatReader{data: body}
	name := r.string("tree name")
	enums := r.bytes(2, "metric and linkage")
	labels := r.readInterned("labels")
	merges := make([]hac.Merge, r.bound(uint64(max(len(labels), 1)-1), minMergeBytes, "merge count"))
	for i := range merges {
		merges[i].A = int(r.u32("merge a"))
		merges[i].B = int(r.u32("merge b"))
		merges[i].Height = r.f64("merge height")
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("pipeline: tree artifact has %d trailing bytes", len(body)-r.off)
	}
	// An unknown metric or method parses to an error and zero, which is
	// a known one, so it never round-trips through its name.
	metric, method := distance.Metric(enums[0]), hac.Method(enums[1])
	m, _ := distance.ParseMetric(metric.String())
	l, _ := hac.ParseMethod(method.String())
	if m != metric || l != method || len(labels) == 0 {
		return nil, fmt.Errorf("pipeline: tree artifact has metric %d, linkage %d and %d leaves", enums[0], enums[1], len(labels))
	}
	tree, err := hac.BuildTree(&hac.Linkage{N: len(labels), Method: method, Merges: merges}, labels)
	if err != nil {
		return nil, err
	}
	return &core.CuisineTree{Name: name, Tree: tree, Metric: metric, Linkage: method}, nil
}

// --- elbow: *kmeans.ElbowCurve ------------------------------------------
//
// Body layout:
//
//	u32 numPoints | numPoints × f64 WCSS
//
// Point i is k = i+1, as kmeans.Elbow sweeps it, and
// kmeans.NewElbowCurve derives the elbow diagnostic from the points
// again, so only the WCSS values are stored. Decode requires at least
// one point and every WCSS finite and >= 0: a sum of squares can be
// nothing else, and Render sizes its bars from it.

func appendElbow(dst []byte, v any) ([]byte, error) {
	c, ok := v.(*kmeans.ElbowCurve)
	if !ok {
		return nil, fmt.Errorf("pipeline: elbow artifact is %T, want *kmeans.ElbowCurve", v)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.Points)))
	for _, p := range c.Points {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.WCSS))
	}
	return dst, nil
}

func decodeElbow(body []byte) (any, error) {
	r := &flatReader{data: body}
	points := make([]kmeans.ElbowPoint, r.bound(uint64(r.u32("point count")), 8, "point count"))
	for i := range points {
		points[i] = kmeans.ElbowPoint{K: i + 1, WCSS: r.f64("wcss")}
		if w := points[i].WCSS; !(w >= 0 && w <= math.MaxFloat64) {
			return nil, fmt.Errorf("pipeline: elbow artifact WCSS %v at k=%d", w, i+1)
		}
	}
	if r.err != nil || len(points) == 0 || r.off != len(body) {
		return nil, fmt.Errorf("pipeline: elbow artifact truncated, empty or trailing data (%v)", r.err)
	}
	return kmeans.NewElbowCurve(points), nil
}

// --- validate: *core.Validation -----------------------------------------
//
// Body layout:
//
//	u32 numFits | per fit: string name | f64 cophenetic | f64 bakersGamma |
//	  f64 robinsonFoulds | u32 numBk | numBk × (u64 k, f64 b)
//	u32 numClaims | per claim: string name | string tree | string detail |
//	  u8 holds (0 or 1)
//
// Every fit carries its report, so every decoded TreeFit has a non-nil
// Report.

// Smallest encodings of the validation elements, for bound.
const (
	minFitBytes   = 4 + 3*8 + 4 // name, three statistics, numBk
	minBkBytes    = 8 + 8
	minClaimBytes = 3*4 + 1 // three strings, holds
)

func appendValidate(dst []byte, v any) ([]byte, error) {
	val, ok := v.(*core.Validation)
	if !ok {
		return nil, fmt.Errorf("pipeline: validate artifact is %T, want *core.Validation", v)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(val.TreeFit)))
	for _, f := range val.TreeFit {
		dst = appendString(dst, f.Name)
		for _, x := range []float64{f.Report.Cophenetic, f.Report.BakersGamma, f.Report.RobinsonFoulds} {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Report.FowlkesMallows)))
		for _, b := range f.Report.FowlkesMallows {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(b.K))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.B))
		}
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(val.Claims)))
	for _, c := range val.Claims {
		dst = appendString(appendString(appendString(dst, c.Name), c.Tree), c.Detail)
		if c.Holds {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst, nil
}

func decodeValidate(body []byte) (any, error) {
	r := &flatReader{data: body}
	val := &core.Validation{TreeFit: make([]core.TreeFit, r.bound(uint64(r.u32("fit count")), minFitBytes, "fit count"))}
	for i := range val.TreeFit {
		f := &val.TreeFit[i]
		f.Name = r.string("fit name")
		f.Report = &treecmp.Report{
			Cophenetic:     r.f64("cophenetic"),
			BakersGamma:    r.f64("bakers gamma"),
			RobinsonFoulds: r.f64("robinson-foulds"),
		}
		f.Report.FowlkesMallows = make([]treecmp.BkScore, r.bound(uint64(r.u32("bk count")), minBkBytes, "bk count"))
		for j := range f.Report.FowlkesMallows {
			f.Report.FowlkesMallows[j] = treecmp.BkScore{K: int(r.u64("bk k")), B: r.f64("bk score")}
		}
	}
	val.Claims = make([]core.Claim, r.bound(uint64(r.u32("claim count")), minClaimBytes, "claim count"))
	for i := range val.Claims {
		c := &val.Claims[i]
		c.Name, c.Tree, c.Detail = r.string("claim name"), r.string("claim tree"), r.string("claim detail")
		holds := r.bytes(1, "claim holds")
		if r.err != nil || holds[0] > 1 {
			return nil, fmt.Errorf("pipeline: validate artifact claim %d truncated or holds byte invalid (%v)", i, r.err)
		}
		c.Holds = holds[0] == 1
	}
	if r.err != nil || r.off != len(body) {
		return nil, fmt.Errorf("pipeline: validate artifact truncated or trailing data (%v)", r.err)
	}
	return val, nil
}
