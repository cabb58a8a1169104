package dataset

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ensdropcatch/internal/vfs"
)

// segmentRows sums the rows of snap's segments from index from on.
func segmentRows(snap *spoolSnapshot, from int) int {
	n := 0
	for _, seg := range snap.segs[from:] {
		n += seg.rows
	}
	return n
}

// Each snapshot write encodes only the transactions absorbed since the
// previous one: on a fresh crawl the segments' rows sum to the crawl's
// transaction count, and a crawl resumed from a loaded snapshot keeps
// the file's bytes and appends only the new delta.
func TestSpoolSnapshotEncodesEachTxOnce(t *testing.T) {
	fx := newSnapFixture(t)
	snapPath := filepath.Join(fx.dir, spoolSnapFile)
	snap, err := loadSpoolSnapshot(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.segs) < 2 {
		t.Fatalf("fresh crawl wrote %d segments, want several", len(snap.segs))
	}
	if got := segmentRows(snap, 0); got != len(fx.wantTxs) {
		t.Fatalf("segments hold %d rows, crawl absorbed %d txs", got, len(fx.wantTxs))
	}

	// Interrupt a second crawl part-way, then resume it.
	dir := t.TempDir()
	opts := fx.opts
	opts.ResumeDir = dir
	flaky := &flakySource{inner: fx.chainSrc, failAfter: 25}
	if _, err := Build(context.Background(), &StoreSource{Store: fx.store}, flaky, fx.market, opts); !errors.Is(err, errInjected) {
		t.Fatalf("interrupted build err = %v, want injected failure", err)
	}
	before, err := os.ReadFile(filepath.Join(dir, spoolSnapFile))
	if err != nil {
		t.Fatal(err)
	}
	first, err := decodeSpoolSnapshot(before)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Build(context.Background(), &StoreSource{Store: fx.store}, fx.chainSrc, fx.market, opts)
	if err != nil {
		t.Fatal(err)
	}
	fx.checkConverged(t, ds)
	after, err := os.ReadFile(filepath.Join(dir, spoolSnapFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(after, before) {
		t.Fatal("resume rewrote the snapshot it loaded instead of appending to it")
	}
	last, err := decodeSpoolSnapshot(after)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := segmentRows(last, len(first.segs)), len(ds.Txs)-len(first.txs); got != want {
		t.Fatalf("resume appended %d rows, want the %d-tx delta", got, want)
	}
	if got := segmentRows(last, 0); got != len(ds.Txs) {
		t.Fatalf("segments hold %d rows, dataset has %d txs", got, len(ds.Txs))
	}
}

// snapOnlyFS routes the spool snapshot's files through a fault injector
// and everything else (spool, checkpoint) to the plain OS, so a walk
// can fault the segment append alone.
type snapOnlyFS struct {
	faulty *vfs.Faulty
}

func (s snapOnlyFS) pick(name string) vfs.FS {
	if strings.HasPrefix(filepath.Base(name), spoolSnapFile) {
		return s.faulty
	}
	return vfs.OS
}

func (s snapOnlyFS) Create(name string) (vfs.File, error) { return s.pick(name).Create(name) }
func (s snapOnlyFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	return s.pick(name).OpenFile(name, flag, perm)
}
func (s snapOnlyFS) Rename(oldpath, newpath string) error {
	return s.pick(newpath).Rename(oldpath, newpath)
}
func (s snapOnlyFS) Remove(name string) error { return s.pick(name).Remove(name) }
func (s snapOnlyFS) MkdirAll(path string, perm fs.FileMode) error {
	return vfs.OS.MkdirAll(path, perm)
}
func (s snapOnlyFS) SyncDir(dir string) error { return vfs.OS.SyncDir(dir) }

// Faults in the segment append never fail the crawl and never cost
// correctness: after short writes, ENOSPC or fsync failures on the
// snapshot, the crawl succeeds and the next resume converges to the
// fault-free fingerprint. A crash at the named seam between a segment's
// write and its sync is process death — that crawl stops — and the
// resume converges as well.
func TestSpoolSnapshotAppendFaultsConverge(t *testing.T) {
	store, chainSrc, market, opts := buildWorld(t, 80)
	want, err := Build(context.Background(), store, chainSrc, market, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.SpoolSnapshotEvery = 4
	opts.FsyncCheckpoint = true

	for _, tc := range []struct {
		name string
		cfg  vfs.FaultConfig
		kind string
	}{
		{"short-write", vfs.FaultConfig{Seed: 3, ShortWriteRate: 0.3}, "shortwrite"},
		{"enospc", vfs.FaultConfig{Seed: 5, WriteErrRate: 0.3}, "writeerr"},
		{"sync", vfs.FaultConfig{Seed: 7, SyncErrRate: 0.3}, "sync"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := opts
			opts.ResumeDir = t.TempDir()
			faulty := vfs.NewFaulty(nil, tc.cfg)
			opts.FS = snapOnlyFS{faulty: faulty}
			if _, err := Build(context.Background(), store, chainSrc, market, opts); err != nil {
				t.Fatalf("snapshot fault failed the crawl: %v", err)
			}
			if faulty.Injected()[tc.kind] == 0 {
				t.Fatalf("no %s fault fired", tc.kind)
			}
			// A failed append is never followed by another: at worst the
			// file ends in one torn segment, which loads as its prefix.
			if _, err := loadSpoolSnapshot(filepath.Join(opts.ResumeDir, spoolSnapFile)); err != nil && !os.IsNotExist(err) {
				t.Fatalf("faulted crawl left an unloadable snapshot: %v", err)
			}
			opts.FS = nil
			ds, err := Build(context.Background(), store, chainSrc, market, opts)
			if err != nil {
				t.Fatalf("resume after snapshot faults: %v", err)
			}
			if ds.Fingerprint() != want.Fingerprint() {
				t.Fatal("resume after snapshot faults diverged from the fault-free crawl")
			}
		})
	}

	t.Run("crash-pre-sync", func(t *testing.T) {
		opts := opts
		opts.ResumeDir = t.TempDir()
		opts.FS = vfs.NewFaulty(nil, vfs.FaultConfig{CrashAfter: map[string]int{"dataset.spoolsnap.pre-sync": 3}})
		if _, err := Build(context.Background(), store, chainSrc, market, opts); !errors.Is(err, vfs.ErrCrashed) {
			t.Fatalf("crashed build error = %v, want ErrCrashed", err)
		}
		snap, err := loadSpoolSnapshot(filepath.Join(opts.ResumeDir, spoolSnapFile))
		if err != nil {
			t.Fatalf("snapshot after crash: %v", err)
		}
		if len(snap.segs) < 4 {
			t.Fatalf("snapshot after crash has %d segments, want the unsynced fourth too", len(snap.segs))
		}
		opts.FS = nil
		ds, err := Build(context.Background(), store, chainSrc, market, opts)
		if err != nil {
			t.Fatalf("resume after crash: %v", err)
		}
		if ds.Fingerprint() != want.Fingerprint() {
			t.Fatal("resume after crash diverged from the fault-free crawl")
		}
	})
}

// The spool appender writes the bytes json.Encoder did, line for line:
// the spool is the crawl's record, so its format must not drift.
func TestSpoolLineMatchesEncoder(t *testing.T) {
	ds := tinyDataset(t)
	addr := ds.Txs[0].From
	for _, rows := range [][]*Tx{{}, ds.Txs[:1], ds.Txs} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(spoolEntry{Address: strings0x(addr), Txs: rows}); err != nil {
			t.Fatal(err)
		}
		if got := appendSpoolLine(nil, addr, rows); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("spool line\n got %s\nwant %s", got, want.Bytes())
		}
	}
}
