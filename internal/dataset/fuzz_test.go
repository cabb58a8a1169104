package dataset

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"unicode/utf8"

	"ensdropcatch/internal/vfs"
)

// encodeBytes returns ds's snapshot bytes.
func encodeBytes(t testing.TB, ds *Dataset) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fuzz.snap")
	if err := ds.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzDecodeDataset holds the binary decoder to its contract on
// arbitrary input: it fails with an error wrapping ErrCorrupt, or it
// returns a dataset that indexes without panicking and whose re-save is
// a fixed point — decoding and saving it again reproduces the bytes and
// the fingerprint. It never panics and never allocates from an
// unchecked count.
func FuzzDecodeDataset(f *testing.F) {
	snap := encodeBytes(f, tinyDataset(f))
	for cut := 0; cut <= len(snap); cut++ {
		f.Add(snap[:cut])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := decodeDataset(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		ds.Reindex()
		saved := encodeBytes(t, ds)
		back, err := decodeDataset(saved)
		if err != nil {
			t.Fatalf("re-saved snapshot does not decode: %v", err)
		}
		back.Reindex()
		if back.Fingerprint() != ds.Fingerprint() {
			t.Fatal("re-saved snapshot decodes to a different fingerprint")
		}
		if !bytes.Equal(encodeBytes(t, back), saved) {
			t.Fatal("saving a decoded snapshot is not a fixed point")
		}
	})
}

// FuzzSpoolSnapshot holds the spool-snapshot decoder to its contract on
// arbitrary input: it fails with an error wrapping ErrCorrupt, or it
// returns whole segments whose rows account for every transaction,
// whose covered offsets never move backwards, and whose prefix decodes
// to the same snapshot again. It never panics and never allocates from
// an unchecked count: a segment's rows are bounded by its payload bytes.
func FuzzSpoolSnapshot(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.snap")
	txs := tinyDataset(f).Txs
	w := &spoolSnapWriter{fsys: vfs.OS, path: path}
	for i, end := range []int{1, 3, 3} {
		if err := w.write(txs[:end], int64(100*(i+1))); err != nil {
			f.Fatal(err)
		}
	}
	w.close()
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	for cut := 0; cut <= len(seed); cut++ {
		f.Add(seed[:cut])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := decodeSpoolSnapshot(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if snap.size > int64(len(data)) || len(snap.txs) > len(data) {
			t.Fatalf("decoded %d txs over %d bytes from %d input bytes", len(snap.txs), snap.size, len(data))
		}
		rows := 0
		var covered int64
		for _, seg := range snap.segs {
			if seg.covered < covered {
				t.Fatalf("covered offset moves backwards: %d after %d", seg.covered, covered)
			}
			covered = seg.covered
			rows += seg.rows
		}
		if rows != len(snap.txs) || covered != snap.covered {
			t.Fatalf("segments account for %d rows covering %d, snapshot has %d txs covering %d", rows, covered, len(snap.txs), snap.covered)
		}
		again, err := decodeSpoolSnapshot(data[:snap.size])
		if err != nil {
			t.Fatalf("whole-segment prefix does not decode: %v", err)
		}
		if again.covered != snap.covered || again.size != snap.size || len(again.txs) != len(snap.txs) {
			t.Fatal("whole-segment prefix decodes to a different snapshot")
		}
		for i := range again.txs {
			if *again.txs[i] != *snap.txs[i] {
				t.Fatalf("tx %d differs when decoding the whole-segment prefix", i)
			}
		}
	})
}

// FuzzSpoolLine holds the reflection-free spool appender to
// json.Encoder's bytes for arbitrary string fields — HTML-sensitive
// characters, control characters, invalid UTF-8, U+2028 — and checks
// that every line decodes back to the entry it encodes.
func FuzzSpoolLine(f *testing.F) {
	for _, s := range []string{"", "0", "5000000000000000000", "register", `<b>&"\`,
		"tab\t nl\n\b\f\x00\x1f\x7f", "  ", "\xff\xc3", "名前"} {
		f.Add(s, s, uint64(7), int64(1_610_000_000), false)
	}
	f.Add("123", "", ^uint64(0), int64(-1), true)
	ds := tinyDataset(f)
	f.Fuzz(func(t *testing.T, value, method string, block uint64, ts int64, failed bool) {
		tx := *ds.Txs[0]
		tx.ValueWei, tx.Method, tx.Block, tx.Timestamp, tx.Failed = value, method, block, ts, failed
		rows := []*Tx{&tx, ds.Txs[1]}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(spoolEntry{Address: strings0x(tx.From), Txs: rows}); err != nil {
			t.Fatal(err)
		}
		got := appendSpoolLine(nil, tx.From, rows)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("spool line\n got %q\nwant %q", got, want.Bytes())
		}
		var back spoolEntry
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("spool line does not decode: %v", err)
		}
		if len(back.Txs) != len(rows) || back.Address != strings0x(tx.From) {
			t.Fatal("spool line decodes to a different entry")
		}
		b := back.Txs[0]
		if b.Hash != tx.Hash || b.Block != block || b.Timestamp != ts || b.From != tx.From || b.To != tx.To || b.Failed != failed {
			t.Fatal("spool line round trip changed a fixed field")
		}
		if utf8.ValidString(value) && b.ValueWei != value || utf8.ValidString(method) && b.Method != method {
			t.Fatalf("spool line round trip changed valueWei/method: %q %q", b.ValueWei, b.Method)
		}
	})
}
