package dataset

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ensdropcatch/internal/ethtypes"
	"ensdropcatch/internal/vfs"
	"ensdropcatch/internal/world"
)

// tinyDataset hand-builds a dataset small enough that exhaustive
// every-byte truncation sweeps over its persisted form stay fast, while
// still populating every section and every field class (empty labels,
// failed txs, equal timestamps, multi-event tokens, both custodial sets).
func tinyDataset(t testing.TB) *Dataset {
	t.Helper()
	mkHash := func(b byte) (h ethtypes.Hash) {
		for i := range h {
			h[i] = b
		}
		return h
	}
	mkAddr := func(b byte) (a ethtypes.Address) {
		for i := range a {
			a[i] = b
		}
		return a
	}

	ds := New(1_600_000_000, 1_700_000_000)
	d1 := &Domain{LabelHash: mkHash(0x11), Label: "gold", Events: []Event{
		{Type: EvRegistered, Registrant: mkAddr(0xa1), Expiry: 1_650_000_000,
			CostWei: "5000000000000000000", PremiumWei: "0", Timestamp: 1_610_000_000,
			Block: 100, TxHash: mkHash(0xf1)},
		{Type: EvRenewed, Registrant: mkAddr(0xa1), Expiry: 1_680_000_000,
			CostWei: "1000000000000000000", Timestamp: 1_620_000_000, Block: 200, TxHash: mkHash(0xf2)},
	}}
	d2 := &Domain{LabelHash: mkHash(0x22), Events: []Event{ // unrecoverable label
		{Type: EvTransferred, Timestamp: 1_615_000_000, Block: 150, TxHash: mkHash(0xf3)},
	}}
	ds.Domains[d1.LabelHash] = d1
	ds.Domains[d2.LabelHash] = d2

	ds.Txs = []*Tx{
		{Hash: mkHash(0x31), Block: 100, Timestamp: 1_610_000_000, From: mkAddr(0xa1),
			To: mkAddr(0xb1), ValueWei: "5000000000000000000", Method: "register"},
		{Hash: mkHash(0x32), Block: 101, Timestamp: 1_610_000_000, From: mkAddr(0xa2),
			To: mkAddr(0xb1), ValueWei: "0", Failed: true, Method: "register"},
		{Hash: mkHash(0x33), Block: 300, Timestamp: 1_630_000_000, From: mkAddr(0xa1),
			To: mkAddr(0xa2), ValueWei: "123", Method: ""},
	}
	ds.Subdomains = []Subdomain{
		{Node: mkHash(0x41), Parent: d1.LabelHash, Name: "pay.gold.eth", Owner: "0xowner1", Created: 1_611_000_000},
		{Node: mkHash(0x42), Parent: d1.LabelHash, Owner: "0xowner2", Created: 1_612_000_000},
	}
	tok := mkHash(0x51)
	ds.Market[tok] = []MarketEvent{
		{Kind: MarketListing, TokenID: tok, Seller: "alice", PriceUSD: 100.5, Timestamp: 1_640_000_000},
		{Kind: MarketSale, TokenID: tok, Seller: "alice", Buyer: "bob", PriceUSD: 99, Timestamp: 1_640_000_000},
	}
	ds.Coinbase[mkAddr(0xc1)] = true
	ds.OtherCustodial[mkAddr(0xc2)] = true
	ds.OtherCustodial[mkAddr(0xc3)] = true
	ds.Reindex()
	return ds
}

func TestParseFormat(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Format
		err  bool
	}{
		{"json", FormatJSON, false},
		{"binary", FormatBinary, false},
		{"msgpack", FormatJSON, true},
		{"", FormatJSON, true},
	} {
		got, err := ParseFormat(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("ParseFormat(%q) = (%v, %v), want (%v, err=%v)", c.in, got, err, c.want, c.err)
		}
	}
	if FormatJSON.String() != "json" || FormatBinary.String() != "binary" {
		t.Error("Format.String mismatch")
	}
}

// The round-trip property at the heart of the format change: a dataset
// saved as JSON and the same dataset saved as binary must load to
// identical fingerprints — the binary format changes the bytes on disk,
// never the dataset.
func TestBinaryAndJSONLoadToIdenticalFingerprints(t *testing.T) {
	ds := sharedDataset(t)
	jsonDir, binDir := t.TempDir(), t.TempDir()
	if err := ds.Save(jsonDir); err != nil {
		t.Fatal(err)
	}
	if err := ds.Save(binDir, WithFormat(FormatBinary)); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := Load(jsonDir)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := Load(binDir)
	if err != nil {
		t.Fatal(err)
	}
	if fj, fb := fromJSON.Fingerprint(), fromBin.Fingerprint(); fj != fb {
		t.Fatalf("fingerprints diverge: json %x, binary %x", fj, fb)
	}
	if len(fromBin.Domains) != len(ds.Domains) || len(fromBin.Txs) != len(ds.Txs) ||
		len(fromBin.Subdomains) != len(ds.Subdomains) {
		t.Fatal("binary round trip lost rows")
	}
	// Indexes must work on the binary-loaded dataset too.
	for _, d := range ds.Domains {
		if d.Label != "" {
			if _, ok := fromBin.ByLabel(d.Label); !ok {
				t.Fatalf("ByLabel(%q) failed after binary reload", d.Label)
			}
			break
		}
	}
}

// SaveSnapshot round-trips through a single file path.
func TestSaveSnapshotRoundTrip(t *testing.T) {
	ds := tinyDataset(t)
	path := filepath.Join(t.TempDir(), "world.snap")
	if err := ds.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	saved, err := loadViaJSON(t, ds)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != saved.Fingerprint() {
		t.Fatal("snapshot fingerprint diverges from JSON round trip")
	}
}

// Reindex and every saver share one canonical tx order, compareTxs.
// The tiny dataset's fingerprint and snapshot bytes are pinned outright
// (its equal-timestamp pair sits in different blocks). The world dataset
// checks that unifying the order moved nothing: its in-memory order is
// the save order and also the (timestamp, hash) order Reindex used
// before, so neither its Fingerprint nor its snapshot bytes changed.
func TestSnapshotBytesAndFingerprintPinnedByCanonicalOrder(t *testing.T) {
	tiny := tinyDataset(t)
	if got, want := tiny.Fingerprint(), uint64(0xfa3891ff4e7e40bb); got != want {
		t.Errorf("tiny Fingerprint = %#x, want %#x", got, want)
	}
	path := filepath.Join(t.TempDir(), "tiny.snap")
	if err := tiny.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%x", sha256.Sum256(b)), "2832f99e66532f0d30929937a01f5e72f523c6e6014893c574b9f65530b0d10b"; got != want {
		t.Errorf("tiny snapshot sha256 = %s, want %s", got, want)
	}

	ds := sharedDataset(t)
	if !slices.Equal(ds.sortedTxs(), ds.Txs) {
		t.Fatal("Reindex order differs from the save order")
	}
	legacy := func(a, b *Tx) int {
		if c := cmp.Compare(a.Timestamp, b.Timestamp); c != 0 {
			return c
		}
		return bytes.Compare(a.Hash[:], b.Hash[:])
	}
	if !slices.IsSortedFunc(ds.Txs, legacy) {
		t.Fatal("world txs tie on timestamp across blocks: the canonical order changed its Fingerprint")
	}
}

// loadViaJSON saves ds as JSON into a temp dir and loads it back,
// producing the canonical persisted-order dataset to compare against.
func loadViaJSON(t *testing.T, ds *Dataset) (*Dataset, error) {
	t.Helper()
	dir := t.TempDir()
	if err := ds.Save(dir); err != nil {
		return nil, err
	}
	return Load(dir)
}

// save→load→save must be byte-stable in both formats: loading and
// re-saving an already-canonical dataset reproduces every file exactly.
func TestSaveLoadSaveIsByteStable(t *testing.T) {
	for _, format := range []Format{FormatJSON, FormatBinary} {
		t.Run(format.String(), func(t *testing.T) {
			ds := sharedDataset(t)
			dir1, dir2 := t.TempDir(), t.TempDir()
			if err := ds.Save(dir1, WithFormat(format)); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(dir1)
			if err != nil {
				t.Fatal(err)
			}
			if err := loaded.Save(dir2, WithFormat(format)); err != nil {
				t.Fatal(err)
			}
			names1 := dirFileNames(t, dir1)
			if len(names1) == 0 {
				t.Fatal("no files saved")
			}
			for _, name := range names1 {
				b1, err := os.ReadFile(filepath.Join(dir1, name))
				if err != nil {
					t.Fatal(err)
				}
				b2, err := os.ReadFile(filepath.Join(dir2, name))
				if err != nil {
					t.Fatalf("second save missing %s: %v", name, err)
				}
				if string(b1) != string(b2) {
					t.Errorf("%s not byte-stable across save→load→save", name)
				}
			}
		})
	}
}

// Market rows that differ only in a NaN payload or the sign of a zero
// price must still sort into one order whatever order they arrive in;
// otherwise re-saving a loaded snapshot could reorder them.
func TestSortedMarketIsTotalOverNaNAndSignedZero(t *testing.T) {
	tok := ethtypes.HashData([]byte("tok"))
	prices := []float64{math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Copysign(0, -1), 0, 1}
	var want []uint64
	for perm := 0; perm < 20; perm++ {
		ds := New(0, 1)
		for i := range prices {
			p := prices[(i+perm)%len(prices)]
			if perm%2 == 1 {
				p = prices[len(prices)-1-(i+perm)%len(prices)]
			}
			ds.Market[tok] = append(ds.Market[tok], MarketEvent{Kind: MarketSale, TokenID: tok, PriceUSD: p, Timestamp: 5})
		}
		var got []uint64
		for _, e := range ds.sortedMarket() {
			got = append(got, math.Float64bits(e.PriceUSD))
		}
		if want == nil {
			want = got
		} else if !slices.Equal(got, want) {
			t.Fatalf("arrival order %d sorts to %x, first order gave %x", perm, got, want)
		}
	}
}

func dirFileNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// The binary contract from the spool tests, applied to the dataset
// snapshot: truncating the file at EVERY byte must fail Load — never
// silently shorten. The tiny dataset keeps the sweep exhaustive.
func TestBinaryTruncatedAtEveryByteFailsLoad(t *testing.T) {
	ds := tinyDataset(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "tiny.snap")
	if err := ds.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Fatalf("untruncated snapshot failed to load: %v", err)
	}
	t.Logf("sweeping %d truncation points", len(full))
	cutPath := filepath.Join(dir, "cut.snap")
	for cut := 0; cut < len(full); cut++ {
		if err := os.WriteFile(cutPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(cutPath)
		if err == nil {
			t.Fatalf("cut at byte %d of %d loaded without error", cut, len(full))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut at byte %d: err = %v, want ErrCorrupt", cut, err)
		}
	}
}

// The same contract sampled across a real-sized (900-domain world)
// binary file, striding with a prime so cuts land in every section and
// alignment class.
func TestBinaryTruncationStrideOnWorldDataset(t *testing.T) {
	ds := sharedDataset(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "world.snap")
	if err := ds.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cuts := []int{0, 1, len(full) - 1, len(full) - len(binFooter), len(full) - len(binFooter) - 1}
	for cut := 7; cut < len(full); cut += 9973 {
		cuts = append(cuts, cut)
	}
	cutPath := filepath.Join(dir, "cut.snap")
	for _, cut := range cuts {
		if err := os.WriteFile(cutPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(cutPath); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut at byte %d of %d: err = %v, want ErrCorrupt", cut, len(full), err)
		}
	}
}

// Regression for the foreground bug: a JSONL section truncated at a line
// boundary parses cleanly line by line, and the old Load returned the
// shortened dataset without complaint. Now every section's row count is
// cross-checked against meta.json.
func TestTruncatedJSONLFailsLoad(t *testing.T) {
	for _, file := range []string{domainsFile, txsFile, subdomainFile, marketFile} {
		t.Run(file, func(t *testing.T) {
			ds := tinyDataset(t)
			dir := t.TempDir()
			if err := ds.Save(dir); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, file)
			full, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			trimmed := strings.TrimRight(string(full), "\n")
			i := strings.LastIndexByte(trimmed, '\n')
			if i < 0 {
				i = 0 // single-row section: drop the only line
			}
			// Clean line-boundary truncation — the crash footprint that
			// used to load silently.
			if err := os.WriteFile(path, full[:i], 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = Load(dir)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("line-boundary truncation: err = %v, want ErrCorrupt", err)
			}
			var cm *CountMismatchError
			if !errors.As(err, &cm) || cm.File != file {
				t.Fatalf("err = %v, want CountMismatchError for %s", err, file)
			}

			// Mid-line truncation must fail too (undecodable row).
			if err := os.WriteFile(path, full[:len(full)-3], 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(dir); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("mid-line truncation: err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// A crash between section writes and the meta.json commit leaves an old
// meta over a mix of generations; differing counts must be detected.
func TestMixedGenerationSectionsDetected(t *testing.T) {
	big := sharedDataset(t)
	small := tinyDataset(t)
	dir, dir2 := t.TempDir(), t.TempDir()
	if err := big.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := small.Save(dir2); err != nil {
		t.Fatal(err)
	}
	// Simulate the torn save: one section from another generation under
	// the original meta.
	b, err := os.ReadFile(filepath.Join(dir2, txsFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, txsFile), b, 0o644); err != nil {
		t.Fatal(err)
	}
	var cm *CountMismatchError
	if _, err := Load(dir); !errors.As(err, &cm) {
		t.Fatalf("err = %v, want CountMismatchError", err)
	}
}

// Load must refuse meta versions newer than it understands rather than
// guess at their invariants.
func TestLoadRejectsNewerMetaVersion(t *testing.T) {
	ds := tinyDataset(t)
	dir := t.TempDir()
	if err := ds.Save(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, metaFile)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutated := strings.Replace(string(b), `"formatVersion": 2`, `"formatVersion": 99`, 1)
	if mutated == string(b) {
		t.Fatal("meta.json does not carry formatVersion 2")
	}
	if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("newer meta version loaded without error")
	}
}

// Pre-version-2 metas (no subdomain/market counts) must still load — the
// JSON fallback covers datasets written before this change.
func TestLoadAcceptsLegacyMetaVersion(t *testing.T) {
	ds := tinyDataset(t)
	dir := t.TempDir()
	if err := ds.Save(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, metaFile)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	legacy := strings.Replace(string(b), `"formatVersion": 2`, `"formatVersion": 0`, 1)
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatalf("legacy meta failed to load: %v", err)
	}
	if len(back.Domains) != len(ds.Domains) {
		t.Fatal("legacy load lost domains")
	}
}

// A directory holding both layouts loads the binary one.
func TestLoadPrefersBinaryInMixedDir(t *testing.T) {
	ds := tinyDataset(t)
	dir := t.TempDir()
	if err := ds.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := ds.Save(dir, WithFormat(FormatBinary)); err != nil {
		t.Fatal(err)
	}
	// Corrupt the JSON metadata; a successful load proves the binary
	// file was the one read.
	if err := os.WriteFile(filepath.Join(dir, metaFile), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err != nil {
		t.Fatalf("mixed dir load failed: %v", err)
	}
}

// writeAtomic must leave the previous file intact when the writer fails,
// and never leave temp files behind on success.
func TestWriteAtomicPreservesOldContentOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.json")
	if err := os.WriteFile(path, []byte("previous generation"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("encoder exploded")
	if err := writeAtomic(vfs.OS, path, false, func(vfs.File) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the writer's failure", err)
	}
	b, err := os.ReadFile(path)
	if err != nil || string(b) != "previous generation" {
		t.Fatalf("old content clobbered: %q, %v", b, err)
	}
	if names := dirFileNames(t, dir); len(names) != 1 {
		t.Fatalf("temp files left behind: %v", names)
	}
}

// TestPersistAcceptanceAtScale reruns the core persistence contract —
// binary save→load→save byte-stable, binary fingerprint equal to the
// JSON-loaded one — over a world of ENSPERSIST_DOMAINS domains. Skipped
// unless that variable is set: at the 100k acceptance scale this is a
// multi-minute run, driven explicitly (see Makefile bench-persist notes)
// rather than on every `go test`.
func TestPersistAcceptanceAtScale(t *testing.T) {
	n, err := strconv.Atoi(os.Getenv("ENSPERSIST_DOMAINS"))
	if err != nil || n <= 0 {
		t.Skip("set ENSPERSIST_DOMAINS (e.g. 100000) to run the at-scale acceptance check")
	}
	res, err := world.Generate(world.DefaultConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := FromWorld(context.Background(), res, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	jsonDir, binDir, binDir2 := t.TempDir(), t.TempDir(), t.TempDir()
	if err := ds.Save(jsonDir); err != nil {
		t.Fatal(err)
	}
	if err := ds.Save(binDir, WithFormat(FormatBinary)); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := Load(jsonDir)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := Load(binDir)
	if err != nil {
		t.Fatal(err)
	}
	if fj, fb := fromJSON.Fingerprint(), fromBin.Fingerprint(); fj != fb {
		t.Fatalf("fingerprints diverge at %d domains: json %x, binary %x", n, fj, fb)
	}
	if err := fromBin.Save(binDir2, WithFormat(FormatBinary)); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(filepath.Join(binDir, binFile))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(filepath.Join(binDir2, binFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("binary save→load→save not byte-stable at %d domains", n)
	}
	t.Logf("%d domains: %d txs, binary file %d bytes, byte-stable, fingerprints equal", n, len(ds.Txs), len(b1))
}

// Save with WithSync and both formats leaves only committed files — no
// .tmp residue — and the result loads.
func TestSaveLeavesNoTempFiles(t *testing.T) {
	ds := tinyDataset(t)
	for _, format := range []Format{FormatJSON, FormatBinary} {
		dir := t.TempDir()
		if err := ds.Save(dir, WithFormat(format), WithSync()); err != nil {
			t.Fatal(err)
		}
		for _, name := range dirFileNames(t, dir) {
			if strings.HasSuffix(name, ".tmp") {
				t.Errorf("%s: temp file %s left behind", format, name)
			}
		}
		if _, err := Load(dir); err != nil {
			t.Fatalf("%s: synced save failed to load: %v", format, err)
		}
	}
}
