package dataset

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"ensdropcatch/internal/dataset/codec"
	"ensdropcatch/internal/ethtypes"
	"ensdropcatch/internal/vfs"
)

// Binary columnar snapshot (dataset.bin), the format behind
// FormatBinary and SaveSnapshot. Layout (all integers via the codec
// package: varints for values, little-endian fixed widths for framing):
//
//	magic "ENSDSB1\n" · version u16 · section count u8
//	5 × section: id u8 · row count u64 · payload length u64 · payload
//	footer "ENSDEND\n"
//
// Sections appear in a fixed order (meta, domains, txs, subdomains,
// market) and each payload stores its rows column-at-a-time
// (struct-of-arrays), so decoding fills contiguous slabs and Reindex
// walks near-contiguous memory instead of pointer-chasing millions of
// individually allocated rows. Row counts and payload lengths are
// declared up front and the decoder consumes every payload exactly, so
// truncating the file at any byte — or tampering with any count — fails
// decode by construction rather than silently shortening the dataset.
const binVersion = 1

var (
	binMagic  = []byte("ENSDSB1\n")
	binFooter = []byte("ENSDEND\n")
)

// Section identifiers, in their required file order.
const (
	secMeta uint8 = 1 + iota
	secDomains
	secTxs
	secSubdomains
	secMarket

	numSections = 5
)

func (ds *Dataset) saveBinary(fsys vfs.FS, path string, sync bool) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := fsys.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("dataset: mkdir: %w", err)
		}
	}
	return writeAtomic(fsys, path, sync, func(f vfs.File) error {
		return encodeDataset(f, ds)
	})
}

// encodeDataset writes the full snapshot onto f. Section payload
// lengths are not known until a section is written, so a placeholder is
// emitted, the payload flushed, and the true length patched in place
// with WriteAt — the codec writer's byte count doubles as the file
// offset because every byte goes through it.
func encodeDataset(f vfs.File, ds *Dataset) error {
	w := codec.NewWriter(f)
	w.Raw(binMagic)
	w.U16(binVersion)
	w.U8(numSections)

	domains := ds.sortedDomains()
	txs := ds.sortedTxs()
	subs := ds.sortedSubdomains()
	market := ds.sortedMarket()
	coin := sortedAddrs(ds.Coinbase)
	other := sortedAddrs(ds.OtherCustodial)

	section := func(id uint8, rows int, encode func()) error {
		w.U8(id)
		w.U64(uint64(rows))
		lenAt := w.Offset()
		w.U64(0) // payload length placeholder, patched below
		start := w.Offset()
		encode()
		if err := w.Flush(); err != nil {
			return fmt.Errorf("dataset: encode section %d: %w", id, err)
		}
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(w.Offset()-start))
		if _, err := f.WriteAt(buf[:], lenAt); err != nil {
			return fmt.Errorf("dataset: patch section %d length: %w", id, err)
		}
		return nil
	}

	if err := section(secMeta, len(coin)+len(other), func() {
		w.Varint(ds.Start)
		w.Varint(ds.End)
		w.Uvarint(uint64(len(coin)))
		for _, a := range coin {
			w.Raw(a[:])
		}
		w.Uvarint(uint64(len(other)))
		for _, a := range other {
			w.Raw(a[:])
		}
	}); err != nil {
		return err
	}
	if err := section(secDomains, len(domains), func() { encodeDomainColumns(w, domains) }); err != nil {
		return err
	}
	if err := section(secTxs, len(txs), func() { encodeTxColumns(w, txs) }); err != nil {
		return err
	}
	if err := section(secSubdomains, len(subs), func() { encodeSubdomainColumns(w, subs) }); err != nil {
		return err
	}
	if err := section(secMarket, len(market), func() { encodeMarketColumns(w, market) }); err != nil {
		return err
	}

	w.Raw(binFooter)
	return w.Flush()
}

func loadBinaryFile(path string) (*Dataset, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	ds, err := decodeDataset(data)
	if err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", path, err)
	}
	ds.Reindex()
	return ds, nil
}

func decodeDataset(data []byte) (*Dataset, error) {
	r := codec.NewReader(data)
	if magic := r.Raw(len(binMagic)); r.Err() != nil || !bytes.Equal(magic, binMagic) {
		return nil, fmt.Errorf("%w: bad snapshot magic", ErrCorrupt)
	}
	v := r.U16()
	nsec := r.U8()
	if r.Err() != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	if v != binVersion {
		return nil, fmt.Errorf("%w: snapshot version %d not supported (want %d)", ErrCorrupt, v, binVersion)
	}
	if nsec != numSections {
		return nil, fmt.Errorf("%w: %d sections declared, want %d", ErrCorrupt, nsec, numSections)
	}

	ds := New(0, 0)
	for _, want := range []uint8{secMeta, secDomains, secTxs, secSubdomains, secMarket} {
		id := r.U8()
		rows := r.U64()
		plen := r.U64()
		if r.Err() != nil {
			return nil, fmt.Errorf("%w: truncated section table", ErrCorrupt)
		}
		if id != want {
			return nil, fmt.Errorf("%w: section id %d where %d expected", ErrCorrupt, id, want)
		}
		payload := r.Raw(int(plen))
		if r.Err() != nil {
			return nil, fmt.Errorf("%w: section %d payload truncated (declares %d bytes)", ErrCorrupt, id, plen)
		}
		// Every row occupies at least one payload byte in every section,
		// so a corrupted row count cannot drive a huge allocation.
		if rows > plen+1 {
			return nil, fmt.Errorf("%w: section %d declares %d rows in %d bytes", ErrCorrupt, id, rows, plen)
		}
		sr := codec.NewReader(payload)
		var derr error
		switch id {
		case secMeta:
			derr = decodeMeta(sr, int(rows), ds)
		case secDomains:
			derr = decodeDomainColumns(sr, int(rows), ds)
		case secTxs:
			var txs []Tx
			if txs, derr = decodeTxColumns(sr, int(rows)); derr == nil {
				ds.Txs = make([]*Tx, len(txs))
				for i := range txs {
					ds.Txs[i] = &txs[i]
				}
			}
		case secSubdomains:
			derr = decodeSubdomainColumns(sr, int(rows), ds)
		case secMarket:
			derr = decodeMarketColumns(sr, int(rows), ds)
		}
		if derr != nil {
			return nil, derr
		}
		if err := sr.Err(); err != nil {
			return nil, fmt.Errorf("%w: section %d: %v", ErrCorrupt, id, err)
		}
		if n := sr.Remaining(); n != 0 {
			return nil, fmt.Errorf("%w: section %d has %d undeclared trailing bytes", ErrCorrupt, id, n)
		}
	}

	if footer := r.Raw(len(binFooter)); r.Err() != nil || !bytes.Equal(footer, binFooter) {
		return nil, fmt.Errorf("%w: bad snapshot footer", ErrCorrupt)
	}
	if n := r.Remaining(); n != 0 {
		return nil, fmt.Errorf("%w: %d bytes after footer", ErrCorrupt, n)
	}
	return ds, nil
}

func decodeMeta(r *codec.Reader, rows int, ds *Dataset) error {
	ds.Start = r.Varint()
	ds.End = r.Varint()
	readAddrs := func(into map[ethtypes.Address]bool) int {
		n := r.Uvarint()
		count := 0
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			var a ethtypes.Address
			copy(a[:], r.Raw(len(a)))
			into[a] = true
			count++
		}
		return count
	}
	got := readAddrs(ds.Coinbase) + readAddrs(ds.OtherCustodial)
	if r.Err() == nil && got != rows {
		return &CountMismatchError{File: binFile + " (meta)", Got: got, Want: rows}
	}
	return nil
}

func encodeDomainColumns(w *codec.Writer, domains []*Domain) {
	total := 0
	for _, d := range domains {
		total += len(d.Events)
	}
	w.Uvarint(uint64(total))
	for _, d := range domains {
		w.Raw(d.LabelHash[:])
	}
	for _, d := range domains {
		w.String(d.Label)
	}
	for _, d := range domains {
		w.Uvarint(uint64(len(d.Events)))
	}
	var types stringTable
	for _, d := range domains {
		for i := range d.Events {
			types.add(string(d.Events[i].Type))
		}
	}
	types.write(w)
	for _, d := range domains {
		for i := range d.Events {
			w.Uvarint(types.add(string(d.Events[i].Type)))
		}
	}
	for _, d := range domains {
		for i := range d.Events {
			w.Raw(d.Events[i].Registrant[:])
		}
	}
	for _, d := range domains {
		for i := range d.Events {
			w.Varint(d.Events[i].Expiry)
		}
	}
	for _, d := range domains {
		for i := range d.Events {
			w.String(d.Events[i].CostWei)
		}
	}
	for _, d := range domains {
		for i := range d.Events {
			w.String(d.Events[i].PremiumWei)
		}
	}
	for _, d := range domains {
		for i := range d.Events {
			w.Varint(d.Events[i].Timestamp)
		}
	}
	for _, d := range domains {
		for i := range d.Events {
			w.Uvarint(d.Events[i].Block)
		}
	}
	for _, d := range domains {
		for i := range d.Events {
			w.Raw(d.Events[i].TxHash[:])
		}
	}
}

func decodeDomainColumns(r *codec.Reader, rows int, ds *Dataset) error {
	total := r.Uvarint()
	if r.Err() == nil && total > uint64(r.Remaining()) {
		return fmt.Errorf("%w: domain section declares %d events beyond its payload", ErrCorrupt, total)
	}
	doms := make([]Domain, rows)
	for i := range doms {
		copy(doms[i].LabelHash[:], r.Raw(len(doms[i].LabelHash)))
	}
	for i := range doms {
		doms[i].Label = r.String()
	}
	counts := make([]uint64, rows)
	var sum uint64
	for i := range counts {
		counts[i] = r.Uvarint()
		if r.Err() == nil && counts[i] > total-sum {
			return fmt.Errorf("%w: per-domain event counts exceed declared total %d", ErrCorrupt, total)
		}
		sum += counts[i]
	}
	if r.Err() == nil && sum != total {
		return fmt.Errorf("%w: per-domain event counts sum to %d, section declares %d", ErrCorrupt, sum, total)
	}
	types := readStringTable(r)
	events := make([]Event, total)
	for i := range events {
		id := r.Uvarint()
		if r.Err() != nil {
			break
		}
		if id >= uint64(len(types)) {
			return fmt.Errorf("%w: event type id %d out of table range %d", ErrCorrupt, id, len(types))
		}
		events[i].Type = EventType(types[id])
	}
	for i := range events {
		copy(events[i].Registrant[:], r.Raw(len(events[i].Registrant)))
	}
	for i := range events {
		events[i].Expiry = r.Varint()
	}
	for i := range events {
		events[i].CostWei = r.String()
	}
	for i := range events {
		events[i].PremiumWei = r.String()
	}
	for i := range events {
		events[i].Timestamp = r.Varint()
	}
	for i := range events {
		events[i].Block = r.Uvarint()
	}
	for i := range events {
		copy(events[i].TxHash[:], r.Raw(len(events[i].TxHash)))
	}
	if r.Err() != nil {
		return nil // surfaced by the caller's sr.Err() check
	}
	off := uint64(0)
	for i := range doms {
		n := counts[i]
		doms[i].Events = events[off : off+n : off+n]
		off += n
		ds.Domains[doms[i].LabelHash] = &doms[i]
	}
	if len(ds.Domains) != rows {
		return fmt.Errorf("%w: %d domain rows collapse to %d distinct label hashes", ErrCorrupt, rows, len(ds.Domains))
	}
	return nil
}

// encodeTxColumns writes txs column-at-a-time. txs must already be in
// compareTxs order: timestamps are delta-encoded against the
// previous row and a negative delta would not round-trip.
func encodeTxColumns(w *codec.Writer, txs []*Tx) {
	for _, tx := range txs {
		w.Raw(tx.Hash[:])
	}
	for _, tx := range txs {
		w.Uvarint(tx.Block)
	}
	var prev int64
	for i, tx := range txs {
		if i == 0 {
			w.Varint(tx.Timestamp)
		} else {
			w.Uvarint(uint64(tx.Timestamp - prev))
		}
		prev = tx.Timestamp
	}
	for _, tx := range txs {
		w.Raw(tx.From[:])
	}
	for _, tx := range txs {
		w.Raw(tx.To[:])
	}
	for _, tx := range txs {
		w.String(tx.ValueWei)
	}
	bits := make([]byte, (len(txs)+7)/8)
	for i, tx := range txs {
		if tx.Failed {
			bits[i/8] |= 1 << (i % 8)
		}
	}
	w.Raw(bits)
	var methods stringTable
	for _, tx := range txs {
		methods.add(tx.Method)
	}
	methods.write(w)
	for _, tx := range txs {
		w.Uvarint(methods.add(tx.Method))
	}
}

// decodeTxColumns reads rows transactions into one contiguous slab —
// the struct-of-arrays payoff: Reindex's sorts and index builds walk
// sequential memory instead of scattered heap allocations.
func decodeTxColumns(r *codec.Reader, rows int) ([]Tx, error) {
	txs := make([]Tx, rows)
	for i := range txs {
		copy(txs[i].Hash[:], r.Raw(len(txs[i].Hash)))
	}
	for i := range txs {
		txs[i].Block = r.Uvarint()
	}
	var prev int64
	for i := range txs {
		if i == 0 {
			prev = r.Varint()
		} else {
			prev += int64(r.Uvarint())
		}
		txs[i].Timestamp = prev
	}
	for i := range txs {
		copy(txs[i].From[:], r.Raw(len(txs[i].From)))
	}
	for i := range txs {
		copy(txs[i].To[:], r.Raw(len(txs[i].To)))
	}
	r.StringColumn(rows, func(i int, s string) { txs[i].ValueWei = s })
	bits := r.Raw((rows + 7) / 8)
	if bits != nil {
		for i := range txs {
			if bits[i/8]&(1<<(i%8)) != 0 {
				txs[i].Failed = true
			}
		}
	}
	methods := readStringTable(r)
	for i := range txs {
		id := r.Uvarint()
		if r.Err() != nil {
			break
		}
		if id >= uint64(len(methods)) {
			return nil, fmt.Errorf("%w: tx method id %d out of table range %d", ErrCorrupt, id, len(methods))
		}
		txs[i].Method = methods[id]
	}
	return txs, nil
}

func encodeSubdomainColumns(w *codec.Writer, subs []Subdomain) {
	for i := range subs {
		w.Raw(subs[i].Node[:])
	}
	for i := range subs {
		w.Raw(subs[i].Parent[:])
	}
	for i := range subs {
		w.String(subs[i].Name)
	}
	for i := range subs {
		w.String(subs[i].Owner)
	}
	for i := range subs {
		w.Varint(subs[i].Created)
	}
}

func decodeSubdomainColumns(r *codec.Reader, rows int, ds *Dataset) error {
	subs := make([]Subdomain, rows)
	for i := range subs {
		copy(subs[i].Node[:], r.Raw(len(subs[i].Node)))
	}
	for i := range subs {
		copy(subs[i].Parent[:], r.Raw(len(subs[i].Parent)))
	}
	for i := range subs {
		subs[i].Name = r.String()
	}
	for i := range subs {
		subs[i].Owner = r.String()
	}
	for i := range subs {
		subs[i].Created = r.Varint()
	}
	ds.Subdomains = subs
	return nil
}

// encodeMarketColumns writes the flattened market events. events must
// already be in sortedMarket order: timestamps are delta-encoded, and
// the decoder rebuilds the per-token lists by appending in file order,
// which reproduces the per-token time order the fingerprint hashes.
func encodeMarketColumns(w *codec.Writer, events []MarketEvent) {
	var kinds stringTable
	for i := range events {
		kinds.add(string(events[i].Kind))
	}
	kinds.write(w)
	for i := range events {
		w.Uvarint(kinds.add(string(events[i].Kind)))
	}
	for i := range events {
		w.Raw(events[i].TokenID[:])
	}
	for i := range events {
		w.String(events[i].Seller)
	}
	for i := range events {
		w.String(events[i].Buyer)
	}
	for i := range events {
		w.F64(events[i].PriceUSD)
	}
	var prev int64
	for i := range events {
		if i == 0 {
			w.Varint(events[i].Timestamp)
		} else {
			w.Uvarint(uint64(events[i].Timestamp - prev))
		}
		prev = events[i].Timestamp
	}
}

func decodeMarketColumns(r *codec.Reader, rows int, ds *Dataset) error {
	kinds := readStringTable(r)
	events := make([]MarketEvent, rows)
	for i := range events {
		id := r.Uvarint()
		if r.Err() != nil {
			break
		}
		if id >= uint64(len(kinds)) {
			return fmt.Errorf("%w: market kind id %d out of table range %d", ErrCorrupt, id, len(kinds))
		}
		events[i].Kind = MarketEventKind(kinds[id])
	}
	for i := range events {
		copy(events[i].TokenID[:], r.Raw(len(events[i].TokenID)))
	}
	for i := range events {
		events[i].Seller = r.String()
	}
	for i := range events {
		events[i].Buyer = r.String()
	}
	for i := range events {
		events[i].PriceUSD = r.F64()
	}
	var prev int64
	for i := range events {
		if i == 0 {
			prev = r.Varint()
		} else {
			prev += int64(r.Uvarint())
		}
		events[i].Timestamp = prev
	}
	if r.Err() != nil {
		return nil // surfaced by the caller's sr.Err() check
	}
	for i := range events {
		ds.Market[events[i].TokenID] = append(ds.Market[events[i].TokenID], events[i])
	}
	return nil
}

// stringTable dictionary-encodes repetitive string columns (event
// types, tx methods, market kinds): the distinct values are written
// once, rows reference them by id. Ids are assigned in first-occurrence
// order, which is deterministic because every encoder walks rows in
// their persisted total order.
type stringTable struct {
	ids  map[string]uint64
	vals []string
}

// add returns the id for s, assigning the next one on first sight.
func (t *stringTable) add(s string) uint64 {
	if id, ok := t.ids[s]; ok {
		return id
	}
	if t.ids == nil {
		t.ids = make(map[string]uint64)
	}
	id := uint64(len(t.vals))
	t.ids[s] = id
	t.vals = append(t.vals, s)
	return id
}

func (t *stringTable) write(w *codec.Writer) {
	w.Uvarint(uint64(len(t.vals)))
	for _, s := range t.vals {
		w.String(s)
	}
}

func readStringTable(r *codec.Reader) []string {
	n := r.Uvarint()
	// Cap the allocation at one entry per remaining byte; a lying count
	// then fails on a short read instead of driving a huge make.
	capHint := n
	if rem := uint64(r.Remaining()); capHint > rem {
		capHint = rem
	}
	vals := make([]string, 0, capHint)
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		vals = append(vals, r.String())
	}
	return vals
}
