package dataset

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
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
