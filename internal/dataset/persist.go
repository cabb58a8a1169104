package dataset

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"ensdropcatch/internal/ethtypes"
	"ensdropcatch/internal/vfs"
)

// On-disk layouts. FormatJSON is a directory with meta.json,
// domains.jsonl, transactions.jsonl, subdomains.jsonl and market.jsonl:
// streamable and diff-friendly, but slow and allocation-heavy at scale.
// FormatBinary is a single versioned columnar snapshot (dataset.bin, see
// binary.go and DESIGN.md) built for million-domain worlds: one read to
// load, struct-of-arrays columns, and truncation detected by
// construction. Load auto-detects which layout a path holds.
const (
	metaFile      = "meta.json"
	domainsFile   = "domains.jsonl"
	subdomainFile = "subdomains.jsonl"
	txsFile       = "transactions.jsonl"
	marketFile    = "market.jsonl"
	binFile       = "dataset.bin"
)

// metaVersion is the JSON layout version written by Save. Version 2
// added the subdomain/market counts so every section is cross-checked on
// load; version-0 files (written before the field existed) still have
// their domain and transaction counts checked.
const metaVersion = 2

// Format selects the on-disk dataset encoding.
type Format int

// Supported dataset encodings.
const (
	// FormatJSON is the legacy directory-of-JSONL layout.
	FormatJSON Format = iota
	// FormatBinary is the versioned columnar snapshot (dataset.bin).
	FormatBinary
)

// String returns the flag spelling of the format.
func (f Format) String() string {
	if f == FormatBinary {
		return "binary"
	}
	return "json"
}

// ParseFormat maps a flag value ("json" or "binary") to a Format.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "json":
		return FormatJSON, nil
	case "binary":
		return FormatBinary, nil
	default:
		return FormatJSON, fmt.Errorf("dataset: unknown format %q (want json or binary)", s)
	}
}

// ErrCorrupt marks a persisted dataset that cannot be trusted: a file
// truncated mid-write, a section whose loaded rows disagree with the
// counts its metadata declared, or binary framing damage. Load never
// silently drops rows — every such condition surfaces as an error
// wrapping ErrCorrupt.
var ErrCorrupt = errors.New("dataset: persisted dataset truncated or corrupt")

// CountMismatchError reports a persisted section whose loaded row count
// does not match the count declared in the dataset metadata — the
// footprint of a file truncated at a row boundary, which would otherwise
// load cleanly with rows silently missing.
type CountMismatchError struct {
	File string // section file name, e.g. "transactions.jsonl"
	Got  int    // rows actually loaded
	Want int    // rows the metadata declared
}

func (e *CountMismatchError) Error() string {
	return fmt.Sprintf("dataset: %s has %d rows, meta declares %d (truncated or mixed-generation save)", e.File, e.Got, e.Want)
}

// Unwrap makes errors.Is(err, ErrCorrupt) hold.
func (e *CountMismatchError) Unwrap() error { return ErrCorrupt }

type meta struct {
	FormatVersion  int      `json:"formatVersion"`
	Start          int64    `json:"start"`
	End            int64    `json:"end"`
	Coinbase       []string `json:"coinbase"`
	OtherCustodial []string `json:"otherCustodial"`
	DomainCount    int      `json:"domainCount"`
	TxCount        int      `json:"txCount"`
	SubdomainCount int      `json:"subdomainCount"`
	MarketCount    int      `json:"marketCount"`
}

type saveConfig struct {
	format Format
	fsync  bool
	fs     vfs.FS
}

// SaveOption tunes Save and SaveSnapshot.
type SaveOption func(*saveConfig)

// WithFormat selects the on-disk encoding (default FormatJSON).
func WithFormat(f Format) SaveOption {
	return func(c *saveConfig) { c.format = f }
}

// WithSync fsyncs every file (and its directory) before the rename that
// commits it, mirroring crawler.WithSync: the saved dataset survives
// power loss, not just process death. Opt-in because it costs one fsync
// per section file.
func WithSync() SaveOption {
	return func(c *saveConfig) { c.fsync = true }
}

// WithFS routes all disk writes through fsys (default vfs.OS). Chaos
// tests pass a vfs.Faulty to exercise the crash-atomicity contract
// under injected disk faults.
func WithFS(fsys vfs.FS) SaveOption {
	return func(c *saveConfig) { c.fs = fsys }
}

// Save writes the dataset to dir, creating it if needed. Every file is
// written to a temp name in dir and renamed into place, and meta.json —
// the commit point whose counts Load cross-checks — lands last, so a
// crash mid-save leaves either the complete previous dataset or a
// detectable partial one, never a silently shortened mix.
func (ds *Dataset) Save(dir string, opts ...SaveOption) error {
	var cfg saveConfig
	for _, o := range opts {
		o(&cfg)
	}
	fsys := vfs.OrOS(cfg.fs)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("dataset: mkdir: %w", err)
	}
	if cfg.format == FormatBinary {
		return ds.saveBinary(fsys, filepath.Join(dir, binFile), cfg.fsync)
	}
	return ds.saveJSON(fsys, dir, cfg.fsync)
}

// SaveSnapshot writes the dataset as a single binary columnar snapshot
// file at path (atomically, via temp-and-rename). Load accepts the
// resulting file directly.
func (ds *Dataset) SaveSnapshot(path string, opts ...SaveOption) error {
	var cfg saveConfig
	for _, o := range opts {
		o(&cfg)
	}
	return ds.saveBinary(vfs.OrOS(cfg.fs), path, cfg.fsync)
}

func (ds *Dataset) saveJSON(fsys vfs.FS, dir string, sync bool) error {
	domains := ds.sortedDomains()
	txs := ds.sortedTxs()
	subs := ds.sortedSubdomains()
	market := ds.sortedMarket()

	if err := writeJSONL(fsys, filepath.Join(dir, domainsFile), domains, sync); err != nil {
		return err
	}
	if err := writeJSONL(fsys, filepath.Join(dir, txsFile), txs, sync); err != nil {
		return err
	}
	if err := writeJSONL(fsys, filepath.Join(dir, subdomainFile), subs, sync); err != nil {
		return err
	}
	if err := writeJSONL(fsys, filepath.Join(dir, marketFile), market, sync); err != nil {
		return err
	}

	m := meta{
		FormatVersion:  metaVersion,
		Start:          ds.Start,
		End:            ds.End,
		DomainCount:    len(domains),
		TxCount:        len(txs),
		SubdomainCount: len(subs),
		MarketCount:    len(market),
	}
	for _, a := range sortedAddrs(ds.Coinbase) {
		m.Coinbase = append(m.Coinbase, a.Hex())
	}
	for _, a := range sortedAddrs(ds.OtherCustodial) {
		m.OtherCustodial = append(m.OtherCustodial, a.Hex())
	}
	// meta.json is the commit point: it declares the row count of every
	// section, and it is written only after all sections are in place.
	if err := vfs.Hit(fsys, "dataset.save.pre-meta"); err != nil {
		return fmt.Errorf("dataset: commit %s: %w", metaFile, err)
	}
	return writeJSON(fsys, filepath.Join(dir, metaFile), m, sync)
}

// sortedDomains returns the domains in label-hash byte order — the total
// order every persisted layout shares.
func (ds *Dataset) sortedDomains() []*Domain {
	domains := make([]*Domain, 0, len(ds.Domains))
	for _, d := range ds.Domains {
		//lint:allow maporder sorted into a total order immediately below
		domains = append(domains, d)
	}
	sort.Slice(domains, func(i, j int) bool {
		return bytes.Compare(domains[i].LabelHash[:], domains[j].LabelHash[:]) < 0
	})
	return domains
}

// sortedTxs returns a copy of Txs in canonical (compareTxs) order, so
// files are byte-identical across runs regardless of crawl concurrency.
func (ds *Dataset) sortedTxs() []*Tx {
	txs := slices.Clone(ds.Txs)
	sortTxs(txs)
	return txs
}

// sortedSubdomains returns a copy of Subdomains stably sorted by node
// bytes (ties keep their deterministic collection order).
func (ds *Dataset) sortedSubdomains() []Subdomain {
	subs := append([]Subdomain(nil), ds.Subdomains...)
	sort.SliceStable(subs, func(i, j int) bool {
		return bytes.Compare(subs[i].Node[:], subs[j].Node[:]) < 0
	})
	return subs
}

// sortedMarket flattens the per-token event map into one slice under a
// total order — (timestamp, token, kind, price, seller, buyer) — so
// equal-timestamp rows cannot land in map-collection order, and the
// order does not depend on sort stability.
func (ds *Dataset) sortedMarket() []MarketEvent {
	var market []MarketEvent
	for _, evs := range ds.Market {
		//lint:allow maporder sorted into a total order immediately below
		market = append(market, evs...)
	}
	sort.Slice(market, func(i, j int) bool {
		a, b := &market[i], &market[j]
		if a.Timestamp != b.Timestamp {
			return a.Timestamp < b.Timestamp
		}
		if c := bytes.Compare(a.TokenID[:], b.TokenID[:]); c != 0 {
			return c < 0
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if c := cmp.Compare(a.PriceUSD, b.PriceUSD); c != 0 {
			return c < 0
		}
		if a.Seller != b.Seller {
			return a.Seller < b.Seller
		}
		if a.Buyer != b.Buyer {
			return a.Buyer < b.Buyer
		}
		// cmp.Compare equates -0 with +0 and all NaNs; the bits tell
		// them apart, keeping the order total.
		return math.Float64bits(a.PriceUSD) < math.Float64bits(b.PriceUSD)
	})
	return market
}

// sortedAddrs returns the keys of m in address byte order.
func sortedAddrs(m map[ethtypes.Address]bool) []ethtypes.Address {
	addrs := make([]ethtypes.Address, 0, len(m))
	for a := range m {
		//lint:allow maporder sorted into a total order immediately below
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool {
		return bytes.Compare(addrs[i][:], addrs[j][:]) < 0
	})
	return addrs
}

// Load reads a dataset previously written by Save and reindexes it.
// path may be a dataset directory (binary if dataset.bin is present,
// JSON otherwise) or a binary snapshot file written by SaveSnapshot.
// Every section's loaded row count is cross-checked against its declared
// count; a file truncated at any byte — even cleanly at a row boundary —
// makes Load fail with an error wrapping ErrCorrupt rather than return a
// silently shortened dataset.
func Load(path string) (*Dataset, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	if !fi.IsDir() {
		return loadBinaryFile(path)
	}
	bin := filepath.Join(path, binFile)
	if _, err := os.Stat(bin); err == nil {
		return loadBinaryFile(bin)
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	return loadJSON(path)
}

func loadJSON(dir string) (*Dataset, error) {
	var m meta
	if err := readJSON(filepath.Join(dir, metaFile), &m); err != nil {
		return nil, err
	}
	if m.FormatVersion > metaVersion {
		return nil, fmt.Errorf("%w: meta formatVersion %d newer than supported %d", ErrCorrupt, m.FormatVersion, metaVersion)
	}
	ds := New(m.Start, m.End)
	for _, s := range m.Coinbase {
		a, err := ethtypes.ParseAddress(s)
		if err != nil {
			return nil, fmt.Errorf("dataset: meta coinbase %q: %w", s, err)
		}
		ds.Coinbase[a] = true
	}
	for _, s := range m.OtherCustodial {
		a, err := ethtypes.ParseAddress(s)
		if err != nil {
			return nil, fmt.Errorf("dataset: meta custodial %q: %w", s, err)
		}
		ds.OtherCustodial[a] = true
	}

	domainRows, err := readJSONL(filepath.Join(dir, domainsFile), func(line []byte) error {
		var d Domain
		if err := json.Unmarshal(line, &d); err != nil {
			return err
		}
		ds.Domains[d.LabelHash] = &d
		return nil
	})
	if err != nil {
		return nil, err
	}
	txRows, err := readJSONL(filepath.Join(dir, txsFile), func(line []byte) error {
		var tx Tx
		if err := json.Unmarshal(line, &tx); err != nil {
			return err
		}
		ds.Txs = append(ds.Txs, &tx)
		return nil
	})
	if err != nil {
		return nil, err
	}
	subRows, err := readJSONL(filepath.Join(dir, subdomainFile), func(line []byte) error {
		var sub Subdomain
		if err := json.Unmarshal(line, &sub); err != nil {
			return err
		}
		ds.Subdomains = append(ds.Subdomains, sub)
		return nil
	})
	if err != nil {
		return nil, err
	}
	marketRows, err := readJSONL(filepath.Join(dir, marketFile), func(line []byte) error {
		var ev MarketEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return err
		}
		ds.Market[ev.TokenID] = append(ds.Market[ev.TokenID], ev)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// A file cut at a line boundary parses cleanly; the declared counts
	// are what catch it. Domain/tx counts are present in every meta
	// version; subdomain/market counts arrived in version 2.
	if domainRows != m.DomainCount {
		return nil, &CountMismatchError{File: domainsFile, Got: domainRows, Want: m.DomainCount}
	}
	if txRows != m.TxCount {
		return nil, &CountMismatchError{File: txsFile, Got: txRows, Want: m.TxCount}
	}
	if m.FormatVersion >= 2 {
		if subRows != m.SubdomainCount {
			return nil, &CountMismatchError{File: subdomainFile, Got: subRows, Want: m.SubdomainCount}
		}
		if marketRows != m.MarketCount {
			return nil, &CountMismatchError{File: marketFile, Got: marketRows, Want: m.MarketCount}
		}
	}
	ds.Reindex()
	return ds, nil
}

// writeAtomic streams write's output to a same-directory temp file and
// renames it over path, so a crash mid-write leaves the previous file
// intact — readers never observe a half-written one. With sync, the file
// is fsynced before the rename and the directory after it, matching the
// crawler.WithSync durability contract. All disk traffic goes through
// fsys so chaos tests can inject write, sync, and rename faults; the
// named crash points bracket the commit rename, the seam the atomicity
// claim depends on.
func writeAtomic(fsys vfs.FS, path string, sync bool, write func(f vfs.File) error) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("dataset: create %s: %w", tmp, err)
	}
	werr := write(f)
	if werr == nil && sync {
		werr = f.Sync()
	}
	cerr := f.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = vfs.Hit(fsys, "dataset.writeAtomic.pre-rename")
	}
	if werr != nil {
		_ = fsys.Remove(tmp) // best-effort cleanup; werr is the failure being reported
		return fmt.Errorf("dataset: write %s: %w", path, werr)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		_ = fsys.Remove(tmp) // best-effort cleanup; the rename error is the failure being reported
		return fmt.Errorf("dataset: commit %s: %w", path, err)
	}
	if err := vfs.Hit(fsys, "dataset.writeAtomic.post-rename"); err != nil {
		// The rename is already durable-in-order; the crash lands after
		// the commit, so the caller sees the failure but the file is
		// whole.
		return fmt.Errorf("dataset: commit %s: %w", path, err)
	}
	if sync {
		if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
			return fmt.Errorf("dataset: sync dir %s: %w", filepath.Dir(path), err)
		}
	}
	return nil
}

func writeJSON(fsys vfs.FS, path string, v any, sync bool) error {
	return writeAtomic(fsys, path, sync, func(w vfs.File) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

func readJSON(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("dataset: open %s: %w", path, err)
	}
	defer f.Close()
	if err := json.NewDecoder(f).Decode(v); err != nil {
		return fmt.Errorf("dataset: decode %s: %w", path, err)
	}
	return nil
}

func writeJSONL[T any](fsys vfs.FS, path string, items []T, sync bool) error {
	return writeAtomic(fsys, path, sync, func(w vfs.File) error {
		bw := bufio.NewWriterSize(w, 1<<20)
		enc := json.NewEncoder(bw)
		for i := range items {
			if err := enc.Encode(items[i]); err != nil {
				return err
			}
		}
		return bw.Flush()
	})
}

// readJSONL streams path line by line through fn and returns how many
// non-empty lines it processed, so callers can cross-check the count
// against the dataset metadata.
func readJSONL(path string, fn func(line []byte) error) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("dataset: open %s: %w", path, err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	lineNo := 0
	rows := 0
	for sc.Scan() {
		lineNo++
		if len(sc.Bytes()) == 0 {
			continue
		}
		if err := fn(sc.Bytes()); err != nil {
			return rows, fmt.Errorf("%w: %s line %d: %v", ErrCorrupt, path, lineNo, err)
		}
		rows++
	}
	if err := sc.Err(); err != nil {
		return rows, fmt.Errorf("dataset: read %s: %w", path, err)
	}
	return rows, nil
}
