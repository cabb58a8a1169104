package dataset

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"slices"

	"ensdropcatch/internal/dataset/codec"
	"ensdropcatch/internal/vfs"
)

// Spool snapshot (txspool.snap) layout: a header followed by
// append-only, self-framed segments.
//
//	magic "ENSSNP2\n" · version u16
//	segment*: covered u64 · rows u64 · payload length u64 ·
//	          payload (tx columns, compareTxs order) · footer "ENSSEND\n"
//
// Each segment holds only the transactions absorbed since the previous
// one, sorted within the segment, plus the spool byte offset that the
// segments up to and including it cover. A crawl therefore encodes every
// transaction once, however many snapshots it takes. Segments are
// appended in place, so a crash can tear the final one: the loader keeps
// the whole segments before a torn tail (an older, still valid
// snapshot) and never trusts a partial one. Anything else that does not
// decode is corruption, and the caller discards the file.

var (
	snapMagic  = []byte("ENSSNP2\n")
	snapFooter = []byte("ENSSEND\n")
)

const (
	// segHeaderLen is the fixed prefix of a segment: covered, rows, length.
	segHeaderLen = 3 * 8
	// maxSnapBuf bounds the encode buffer a writer keeps between writes.
	maxSnapBuf = 16 << 20
)

// spoolSnapshot is a decoded txspool.snap.
type spoolSnapshot struct {
	txs     []*Tx
	covered int64 // spool offset covered by the last whole segment
	size    int64 // bytes of the header plus the whole segments
	segs    []spoolSegment
}

// spoolSegment describes one whole segment of a decoded snapshot.
type spoolSegment struct {
	covered int64 // spool offset covered once this segment is absorbed
	rows    int
	end     int64 // file offset just past the segment's footer
}

// loadSpoolSnapshot reads and decodes the snapshot at path. A missing
// file reports an error os.IsNotExist recognizes.
func loadSpoolSnapshot(path string) (*spoolSnapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeSpoolSnapshot(data)
}

// decodeSpoolSnapshot decodes the header and every whole segment. A
// final segment cut short by the end of data is a torn append and is
// left out; any other anomaly — bad framing, an offset that moves
// backwards, columns that do not fill their declared payload exactly —
// fails with an error wrapping ErrCorrupt, because the caller's answer
// to damage is to discard the snapshot and re-parse the spool, never to
// trust part of a damaged cache.
func decodeSpoolSnapshot(data []byte) (*spoolSnapshot, error) {
	r := codec.NewReader(data)
	if magic := r.Raw(len(snapMagic)); r.Err() != nil || !bytes.Equal(magic, snapMagic) {
		return nil, fmt.Errorf("%w: bad spool snapshot magic", ErrCorrupt)
	}
	v := r.U16()
	if r.Err() != nil {
		return nil, fmt.Errorf("%w: truncated spool snapshot header", ErrCorrupt)
	}
	if v != binVersion {
		return nil, fmt.Errorf("%w: spool snapshot version %d not supported (want %d)", ErrCorrupt, v, binVersion)
	}
	snap := &spoolSnapshot{size: int64(r.Offset())}
	for r.Remaining() > 0 {
		if r.Remaining() < segHeaderLen {
			break // torn inside the segment header
		}
		covered, rows, length := r.U64(), r.U64(), r.U64()
		if length > uint64(r.Remaining()) || uint64(r.Remaining())-length < uint64(len(snapFooter)) {
			break // torn inside the payload or footer
		}
		if covered > math.MaxInt64 || int64(covered) < snap.covered {
			return nil, fmt.Errorf("%w: spool snapshot segment at byte %d covers offset %d after %d", ErrCorrupt, snap.size, covered, snap.covered)
		}
		if rows > length {
			return nil, fmt.Errorf("%w: spool snapshot segment declares %d rows in %d bytes", ErrCorrupt, rows, length)
		}
		payload := codec.NewReader(r.Raw(int(length)))
		txs, err := decodeTxColumns(payload, int(rows))
		if err != nil {
			return nil, err
		}
		if payload.Err() != nil || payload.Remaining() != 0 {
			return nil, fmt.Errorf("%w: spool snapshot segment at byte %d does not fill its %d-byte payload", ErrCorrupt, snap.size, length)
		}
		if footer := r.Raw(len(snapFooter)); !bytes.Equal(footer, snapFooter) {
			return nil, fmt.Errorf("%w: bad spool snapshot segment footer at byte %d", ErrCorrupt, snap.size)
		}
		for i := range txs {
			snap.txs = append(snap.txs, &txs[i])
		}
		snap.covered = int64(covered)
		snap.size = int64(r.Offset())
		snap.segs = append(snap.segs, spoolSegment{covered: snap.covered, rows: int(rows), end: snap.size})
	}
	return snap, nil
}

// spoolSnapWriter appends segments to the crawl's snapshot. It is not
// safe for concurrent use; the crawl calls it under its mutex.
type spoolSnapWriter struct {
	fsys vfs.FS
	path string
	sync bool

	// f is the append handle of a whole snapshot file. nil means the
	// next write starts a fresh file holding every transaction.
	f       vfs.File
	mark    int   // txs[:mark] of the crawl's list are in the file
	covered int64 // spool offset the file covers

	buf bytes.Buffer
	enc *codec.Writer // encodes into buf; made on first use
}

// resume continues a snapshot that loaded as snap: it drops a torn tail
// past the whole segments and reopens the file for appending, with the
// crawl's first mark transactions already in it. If either step fails,
// the next write starts a fresh file instead.
func (w *spoolSnapWriter) resume(snap *spoolSnapshot, mark int) {
	w.mark, w.covered = mark, snap.covered
	if fi, err := os.Stat(w.path); err != nil || fi.Size() != snap.size {
		// Heal like the spool's torn tail: straight to the OS.
		if os.Truncate(w.path, snap.size) != nil {
			return
		}
	}
	if f, err := w.fsys.OpenFile(w.path, os.O_WRONLY|os.O_APPEND, 0o644); err == nil {
		w.f = f
	}
}

// write records that txs, the crawl's absorbed transactions so far,
// cover the spool up to covered. It appends one segment holding
// txs[mark:], or — when no whole file is open — atomically writes a
// fresh snapshot holding all of txs. A failed append closes the file,
// so the next write replaces whatever it tore with a fresh snapshot.
func (w *spoolSnapWriter) write(txs []*Tx, covered int64) error {
	if w.f != nil {
		if covered == w.covered && len(txs) == w.mark {
			return nil // nothing new since the last segment
		}
		seg := w.encode(false, txs[w.mark:], covered)
		_, err := w.f.Write(seg)
		if err == nil {
			// A crash here leaves a whole but unsynced final segment.
			err = vfs.Hit(w.fsys, "dataset.spoolsnap.pre-sync")
		}
		if err == nil && w.sync {
			err = w.f.Sync()
		}
		if err != nil {
			w.close()
			return fmt.Errorf("dataset: append spool snapshot: %w", err)
		}
	} else {
		file := w.encode(true, txs, covered)
		if err := writeAtomic(w.fsys, w.path, w.sync, func(f vfs.File) error {
			_, err := f.Write(file)
			return err
		}); err != nil {
			return err
		}
		f, err := w.fsys.OpenFile(w.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("dataset: reopen spool snapshot: %w", err)
		}
		w.f = f
	}
	w.mark, w.covered = len(txs), covered
	pm().snapshotWrites.Inc()
	if w.buf.Cap() > maxSnapBuf {
		// A fresh file holds every transaction; its buffer must not stay
		// pinned for the rest of the crawl.
		w.buf = bytes.Buffer{}
	}
	return nil
}

// encode returns one segment of txs covering covered, preceded by the
// file header when header is set. The bytes alias w.buf and are valid
// until the next call.
func (w *spoolSnapWriter) encode(header bool, txs []*Tx, covered int64) []byte {
	sorted := slices.Clone(txs)
	sortTxs(sorted)
	if w.enc == nil {
		w.enc = codec.NewWriter(&w.buf)
	}
	w.buf.Reset()
	base := w.enc.Offset()
	if header {
		w.enc.Raw(snapMagic)
		w.enc.U16(binVersion)
	}
	w.enc.U64(uint64(covered))
	w.enc.U64(uint64(len(sorted)))
	lenAt := w.enc.Offset() - base
	w.enc.U64(0) // payload length, patched below
	start := w.enc.Offset()
	encodeTxColumns(w.enc, sorted)
	length := w.enc.Offset() - start
	w.enc.Raw(snapFooter)
	_ = w.enc.Flush() // into a bytes.Buffer: cannot fail
	b := w.buf.Bytes()
	binary.LittleEndian.PutUint64(b[lenAt:], uint64(length))
	return b
}

// close releases the append handle; the next write starts afresh.
func (w *spoolSnapWriter) close() {
	if w.f != nil {
		_ = w.f.Close() // every segment that matters was written (and synced) already
		w.f = nil
	}
}
