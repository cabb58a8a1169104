package dataset

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ensdropcatch/internal/ethtypes"
	"ensdropcatch/internal/obs"
	"ensdropcatch/internal/subgraph"
	"ensdropcatch/internal/vfs"
	"ensdropcatch/internal/world"
)

// snapFixture runs one complete resumable Build (which ends by writing a
// spool snapshot covering the whole spool) and returns the resume dir
// plus everything needed to re-run and cross-check it.
type snapFixture struct {
	store    *subgraph.Store
	chainSrc *ChainSource
	market   *MarketEventsSource
	opts     BuildOptions
	dir      string
	wantTxs  map[ethtypes.Hash]bool
}

func newSnapFixture(t *testing.T) *snapFixture {
	t.Helper()
	res, err := world.Generate(world.DefaultConfig(60))
	if err != nil {
		t.Fatal(err)
	}
	fx := &snapFixture{
		store:    subgraph.BuildIndex(res.Chain),
		chainSrc: &ChainSource{Chain: res.Chain, Labels: LabelsFromWorld(res)},
		market:   NewMarketEventsSource(res.OpenSea),
		dir:      t.TempDir(),
	}
	fx.opts = BuildOptions{Start: res.Config.Start, End: res.Config.End, TxWorkers: 2,
		ResumeDir: fx.dir, SpoolSnapshotEvery: 8}
	ds, err := fx.build(t)
	if err != nil {
		t.Fatal(err)
	}
	fx.wantTxs = map[ethtypes.Hash]bool{}
	for _, tx := range ds.Txs {
		fx.wantTxs[tx.Hash] = true
	}
	if _, err := os.Stat(filepath.Join(fx.dir, spoolSnapFile)); err != nil {
		t.Fatalf("completed crawl left no spool snapshot: %v", err)
	}
	return fx
}

func (fx *snapFixture) build(t *testing.T) (*Dataset, error) {
	t.Helper()
	return Build(context.Background(), &StoreSource{Store: fx.store}, fx.chainSrc, fx.market, fx.opts)
}

func (fx *snapFixture) checkConverged(t *testing.T, ds *Dataset) {
	t.Helper()
	if len(ds.Txs) != len(fx.wantTxs) {
		t.Fatalf("resumed build has %d txs, want %d", len(ds.Txs), len(fx.wantTxs))
	}
	for _, tx := range ds.Txs {
		if !fx.wantTxs[tx.Hash] {
			t.Fatalf("unexpected tx %s", tx.Hash)
		}
	}
}

// The snapshot's whole point: resume must not re-parse the spool prefix
// the snapshot covers. Corrupting a byte inside that prefix — damage
// that makes a full re-parse hard-fail with ErrSpoolCorrupt — must go
// unnoticed when the snapshot is present, and fail when it is absent.
func TestSnapshotResumeSkipsCoveredSpoolPrefix(t *testing.T) {
	fx := newSnapFixture(t)
	spoolPath := filepath.Join(fx.dir, spoolFile)
	spool, err := os.ReadFile(spoolPath)
	if err != nil {
		t.Fatal(err)
	}
	// Smash the first line's JSON without touching its newline (the
	// non-final-line corruption TestResumeRefusesCorruptMiddleLine
	// proves is a hard error on the full-parse path).
	smashed := append([]byte(nil), spool...)
	copy(smashed[1:5], "!!!!")
	if err := os.WriteFile(spoolPath, smashed, 0o644); err != nil {
		t.Fatal(err)
	}

	ds, err := fx.build(t)
	if err != nil {
		t.Fatalf("snapshot-backed resume re-parsed the covered prefix: %v", err)
	}
	fx.checkConverged(t, ds)

	// Without the snapshot the same damage must hard-fail, proving the
	// pass above really did skip the prefix.
	if err := os.Remove(filepath.Join(fx.dir, spoolSnapFile)); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.build(t); !errors.Is(err, ErrSpoolCorrupt) {
		t.Fatalf("err = %v, want ErrSpoolCorrupt once the snapshot is gone", err)
	}
}

// writeSnapSegments writes a snapshot at path whose i-th segment adds
// txs[:ends[i]] beyond the previous segment and covers covered[i], and
// returns the decoded whole file.
func writeSnapSegments(t *testing.T, path string, txs []*Tx, ends []int, covered []int64) *spoolSnapshot {
	t.Helper()
	w := &spoolSnapWriter{fsys: vfs.OS, path: path}
	defer w.close()
	for i, end := range ends {
		if err := w.write(txs[:end], covered[i]); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := loadSpoolSnapshot(path)
	if err != nil {
		t.Fatalf("intact snapshot rejected: %v", err)
	}
	if len(snap.segs) != len(ends) {
		t.Fatalf("snapshot has %d segments, want %d", len(snap.segs), len(ends))
	}
	return snap
}

// checkPrefixOrReject cuts data at cut and demands that the cut either
// fails to load, or loads exactly the transactions and covered offset
// of the whole segments of full that end at or before cut — never a
// partial segment.
func checkPrefixOrReject(t *testing.T, data []byte, full *spoolSnapshot, cut int) {
	t.Helper()
	got, err := decodeSpoolSnapshot(data[:cut])
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut at byte %d: untyped error %v", cut, err)
		}
		return
	}
	var covered int64
	rows := 0
	for _, seg := range full.segs {
		if seg.end > int64(cut) {
			break
		}
		covered, rows = seg.covered, rows+seg.rows
	}
	if got.covered != covered || len(got.txs) != rows {
		t.Fatalf("cut at byte %d of %d loaded %d txs covering %d, want the whole-segment prefix: %d txs covering %d",
			cut, len(data), len(got.txs), got.covered, rows, covered)
	}
	for i, tx := range got.txs {
		if *tx != *full.txs[i] {
			t.Fatalf("cut at byte %d: tx %d differs from the intact snapshot's", cut, i)
		}
	}
}

// A torn snapshot (any truncation point) must never poison resume: a
// cut either fails to load, or it loads exactly the whole segments
// before it — a cut on a segment boundary is a valid older snapshot.
// Sweep every byte of a small multi-segment snapshot, then stride across
// a real crawl's snapshot so cuts land in every segment and alignment
// class.
func TestTornSnapshotAtEveryByteIsRejected(t *testing.T) {
	tinyPath := filepath.Join(t.TempDir(), "tiny.snap")
	tinyTxs := tinyDataset(t).Txs
	tinyFull := writeSnapSegments(t, tinyPath, tinyTxs, []int{1, 3, 3}, []int64{400, 900, 999})
	tiny, err := os.ReadFile(tinyPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sweeping %d truncation points over %d segments", len(tiny)+1, len(tinyFull.segs))
	for cut := 0; cut <= len(tiny); cut++ {
		checkPrefixOrReject(t, tiny, tinyFull, cut)
	}
	// Cuts inside the file header leave nothing to trust.
	for cut := 0; cut < len(snapMagic)+2; cut++ {
		if _, err := decodeSpoolSnapshot(tiny[:cut]); err == nil {
			t.Fatalf("snapshot cut inside its header at byte %d loaded", cut)
		}
	}

	fx := newSnapFixture(t)
	data, err := os.ReadFile(filepath.Join(fx.dir, spoolSnapFile))
	if err != nil {
		t.Fatal(err)
	}
	full, err := decodeSpoolSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.segs) < 2 {
		t.Fatalf("real snapshot has %d segments, want several", len(full.segs))
	}
	cuts := []int{0, 1, len(data) - 1, len(data) - len(snapFooter), len(data)}
	for _, seg := range full.segs {
		cuts = append(cuts, int(seg.end)-1, int(seg.end), int(seg.end)+1)
	}
	for cut := 7; cut < len(data); cut += 499 {
		cuts = append(cuts, cut)
	}
	for _, cut := range cuts {
		if cut >= 0 && cut <= len(data) {
			checkPrefixOrReject(t, data, full, cut)
		}
	}
}

// A snapshot torn mid-segment restores its whole-segment prefix, heals
// the torn tail, and converges; one torn inside its header is
// discarded in favour of the full spool re-parse and converges too.
func TestTornSnapshotFallsBackAndConverges(t *testing.T) {
	fx := newSnapFixture(t)
	snapPath := filepath.Join(fx.dir, spoolSnapFile)
	full, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := decodeSpoolSnapshot(full)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name               string
		cut                int
		restored, fellBack bool
	}{
		{"mid-segment", int(whole.segs[len(whole.segs)/2].end) + 5, true, false},
		{"header", len(snapMagic) + 1, false, true},
	} {
		reg := obs.NewRegistry()
		InitMetrics(reg)
		if err := os.WriteFile(snapPath, full[:tc.cut], 0o644); err != nil {
			t.Fatal(err)
		}
		ds, err := fx.build(t)
		if err != nil {
			t.Fatalf("%s: resume with torn snapshot failed: %v", tc.name, err)
		}
		fx.checkConverged(t, ds)
		if got := pm().snapshotRestores.Value() > 0; got != tc.restored {
			t.Errorf("%s: restored = %v, want %v", tc.name, got, tc.restored)
		}
		if got := pm().snapshotFallbacks.Value() > 0; got != tc.fellBack {
			t.Errorf("%s: fell back = %v, want %v", tc.name, got, tc.fellBack)
		}
		// Either way the resume leaves a whole snapshot behind; a
		// restored one keeps its whole segments and appends after them.
		after, err := os.ReadFile(snapPath)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := decodeSpoolSnapshot(after)
		if err != nil {
			t.Errorf("%s: snapshot after resume: %v", tc.name, err)
		} else if snap.size != int64(len(after)) {
			t.Errorf("%s: snapshot after resume still has a torn tail", tc.name)
		}
		if prefix := whole.segs[len(whole.segs)/2].end; tc.restored && !bytes.HasPrefix(after, full[:prefix]) {
			t.Errorf("%s: resume rewrote the restored segments instead of appending", tc.name)
		}
	}
	InitMetrics(nil)
}

// A healthy snapshot-backed resume restores, converges, and counts as a
// restore; writeSpoolSnapshot/loadSpoolSnapshot round-trip exactly.
func TestSnapshotResumeConvergesAndCounts(t *testing.T) {
	fx := newSnapFixture(t)
	reg := obs.NewRegistry()
	InitMetrics(reg)
	defer InitMetrics(nil)

	ds, err := fx.build(t)
	if err != nil {
		t.Fatal(err)
	}
	fx.checkConverged(t, ds)
	if got := pm().snapshotRestores.Value(); got != 1 {
		t.Errorf("restores = %d, want 1", got)
	}
	if got := pm().snapshotFallbacks.Value(); got != 0 {
		t.Errorf("fallbacks = %d, want 0", got)
	}
}

func TestSpoolSnapshotRoundTrip(t *testing.T) {
	ds := tinyDataset(t)
	snap := writeSnapSegments(t, filepath.Join(t.TempDir(), "txspool.snap"), ds.Txs, []int{len(ds.Txs)}, []int64{12345})
	if snap.covered != 12345 {
		t.Errorf("covered = %d, want 12345", snap.covered)
	}
	if len(snap.txs) != len(ds.Txs) {
		t.Fatalf("%d txs, want %d", len(snap.txs), len(ds.Txs))
	}
	want := map[ethtypes.Hash]*Tx{}
	for _, tx := range ds.Txs {
		want[tx.Hash] = tx
	}
	for _, tx := range snap.txs {
		w := want[tx.Hash]
		if w == nil {
			t.Fatalf("unexpected tx %s", tx.Hash)
		}
		if tx.Block != w.Block || tx.Timestamp != w.Timestamp || tx.From != w.From ||
			tx.To != w.To || tx.ValueWei != w.ValueWei || tx.Failed != w.Failed || tx.Method != w.Method {
			t.Fatalf("tx %s fields diverge after round trip", tx.Hash)
		}
	}
}

// A snapshot claiming to cover more spool than exists (a stale snapshot
// next to a replaced spool) must be discarded, not trusted.
func TestSnapshotBeyondSpoolIsDiscarded(t *testing.T) {
	fx := newSnapFixture(t)
	reg := obs.NewRegistry()
	InitMetrics(reg)
	defer InitMetrics(nil)

	// Rewrite the snapshot with an offset past the spool's end.
	spoolPath := filepath.Join(fx.dir, spoolFile)
	fi, err := os.Stat(spoolPath)
	if err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(fx.dir, spoolSnapFile)
	snap, err := loadSpoolSnapshot(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(snapPath); err != nil {
		t.Fatal(err)
	}
	writeSnapSegments(t, snapPath, snap.txs, []int{len(snap.txs)}, []int64{fi.Size() + 1000})

	ds, err := fx.build(t)
	if err != nil {
		t.Fatalf("resume with stale snapshot failed: %v", err)
	}
	fx.checkConverged(t, ds)
	if got := pm().snapshotFallbacks.Value(); got == 0 {
		t.Error("stale snapshot not counted as a fallback")
	}
}

// The snapshot itself must round-trip byte-identically regardless of the
// order transactions were absorbed in — each segment is sorted.
func TestSpoolSnapshotIsOrderInsensitive(t *testing.T) {
	ds := tinyDataset(t)
	shuffled := append([]*Tx(nil), ds.Txs...)
	for i, j := 0, len(shuffled)-1; i < j; i, j = i+1, j-1 {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	dir := t.TempDir()
	p1, p2 := filepath.Join(dir, "a.snap"), filepath.Join(dir, "b.snap")
	writeSnapSegments(t, p1, ds.Txs, []int{len(ds.Txs)}, []int64{7})
	writeSnapSegments(t, p2, shuffled, []int{len(shuffled)}, []int64{7})
	b1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("snapshot bytes depend on absorb order")
	}
}
