package dataset

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ensdropcatch/internal/ethtypes"
)

// indexFixture builds a small dataset with deliberate transaction placement
// for exercising the binary-searched accessors.
func indexFixture(t *testing.T) (*Dataset, ethtypes.Address, ethtypes.Address, ethtypes.Address) {
	t.Helper()
	ds := New(0, 100_000)
	a := ethtypes.DeriveAddress("idx-a")
	b := ethtypes.DeriveAddress("idx-b")
	c := ethtypes.DeriveAddress("idx-c")
	add := func(from, to ethtypes.Address, ts int64, failed bool) {
		h := ethtypes.HashData([]byte(fmt.Sprintf("idx-tx-%s-%s-%d-%v", from, to, ts, failed)))
		ds.Txs = append(ds.Txs, &Tx{Hash: h, Timestamp: ts, From: from, To: to, ValueWei: "1000000000000000000", Failed: failed})
	}
	add(a, b, 100, false)
	add(a, b, 200, false)
	add(a, b, 300, true) // failed: excluded from in/out indexes
	add(a, c, 150, false)
	add(c, b, 200, false) // timestamp tie with a->b@200
	add(b, a, 400, false)
	ds.Reindex()
	return ds, a, b, c
}

func TestIncomingOfWindowBoundaries(t *testing.T) {
	ds, a, b, c := indexFixture(t)
	_ = c
	// [from, to) is half-open: a tx at exactly `to` is excluded, at `from`
	// included.
	if got := len(ds.IncomingOf(b, 100, 200)); got != 1 {
		t.Errorf("[100,200) = %d txs, want 1", got)
	}
	if got := len(ds.IncomingOf(b, 100, 201)); got != 3 {
		t.Errorf("[100,201) = %d txs, want 3 (failed tx excluded)", got)
	}
	if got := len(ds.IncomingOf(b, 0, 100_000)); got != 3 {
		t.Errorf("full window = %d txs, want 3", got)
	}
	if got := len(ds.IncomingOf(b, 500, 600)); got != 0 {
		t.Errorf("empty window = %d txs", got)
	}
	if got := len(ds.IncomingOf(a, 400, 401)); got != 1 {
		t.Errorf("b->a at 400 = %d txs, want 1", got)
	}
	// Unknown address: no panic, empty result.
	if got := len(ds.IncomingOf(ethtypes.DeriveAddress("idx-nobody"), 0, 100_000)); got != 0 {
		t.Errorf("unknown addr = %d txs", got)
	}
}

func TestIncomingOfMatchesLinearScan(t *testing.T) {
	ds, _, b, _ := indexFixture(t)
	for from := int64(0); from <= 500; from += 50 {
		for to := from; to <= 500; to += 50 {
			var want int
			for _, tx := range ds.Txs {
				if tx.To == b && tx.Timestamp >= from && tx.Timestamp < to && !tx.Failed {
					want++
				}
			}
			if got := len(ds.IncomingOf(b, from, to)); got != want {
				t.Fatalf("IncomingOf(b, %d, %d) = %d, linear scan says %d", from, to, got, want)
			}
		}
	}
}

func TestOutgoingTo(t *testing.T) {
	ds, a, b, c := indexFixture(t)
	ab := ds.OutgoingTo(a, b)
	if len(ab) != 2 {
		t.Fatalf("a->b = %d txs, want 2 (failed excluded)", len(ab))
	}
	if ab[0].Timestamp != 100 || ab[1].Timestamp != 200 {
		t.Errorf("a->b not in time order: %d, %d", ab[0].Timestamp, ab[1].Timestamp)
	}
	if got := len(ds.OutgoingTo(a, c)); got != 1 {
		t.Errorf("a->c = %d txs, want 1", got)
	}
	if got := len(ds.OutgoingTo(c, a)); got != 0 {
		t.Errorf("c->a = %d txs, want 0", got)
	}
}

func TestValueEthCachedMatchesParse(t *testing.T) {
	tx := &Tx{ValueWei: "1234500000000000000"}
	uncached := tx.ValueEth() // no Reindex: parse path
	ds := New(0, 1000)
	ds.Txs = append(ds.Txs, tx)
	ds.Reindex()
	if cached := tx.ValueEth(); cached != uncached {
		t.Errorf("cached %v != parsed %v", cached, uncached)
	}
	if tx.ValueEth() != 1.2345 {
		t.Errorf("ValueEth = %v, want 1.2345", tx.ValueEth())
	}
}

func TestFingerprintStableAndSensitive(t *testing.T) {
	ds1, _, _, _ := indexFixture(t)
	ds2, _, _, _ := indexFixture(t)
	fp1 := ds1.Fingerprint()
	if fp2 := ds2.Fingerprint(); fp2 != fp1 {
		t.Fatalf("identical datasets fingerprint differently: %x vs %x", fp1, fp2)
	}
	if again := ds1.Fingerprint(); again != fp1 {
		t.Fatalf("fingerprint not idempotent: %x vs %x", fp1, again)
	}
	// Reads must not perturb it.
	for _, tx := range ds1.Txs {
		_ = tx.ValueEth()
	}
	ds1.IncomingOf(ds1.Txs[0].To, 0, 100_000)
	if got := ds1.Fingerprint(); got != fp1 {
		t.Fatalf("read-only access changed fingerprint")
	}
	// A single mutated field must change it.
	ds2.Txs[0].Timestamp++
	if got := ds2.Fingerprint(); got == fp1 {
		t.Fatal("mutation not detected")
	}
}

// randomIndexFixture builds a shuffled dataset over a few addresses so
// that every index edge case recurs: timestamp ties (within and across
// blocks), self-transfers, failed txs, and one sender paying many
// recipients. The returned probes add an address that never transacts.
func randomIndexFixture(seed int64) (*Dataset, []ethtypes.Address) {
	rng := rand.New(rand.NewSource(seed))
	probes := make([]ethtypes.Address, 10)
	for i := range probes {
		probes[i] = ethtypes.DeriveAddress(fmt.Sprintf("prop-%d", i))
	}
	whale := probes[0]
	ds := New(0, 1000)
	for i := 0; i < 300; i++ {
		from := probes[rng.Intn(len(probes)-1)]
		if i%3 == 0 {
			from = whale
		}
		to := probes[rng.Intn(len(probes)-1)]
		if rng.Intn(10) == 0 {
			to = from
		}
		ts := int64(rng.Intn(40)) * 10
		ds.Txs = append(ds.Txs, &Tx{
			Hash:      ethtypes.HashData([]byte(fmt.Sprintf("prop-%d-%d", seed, i))),
			Block:     uint64(ts) + uint64(rng.Intn(2)),
			Timestamp: ts,
			From:      from,
			To:        to,
			ValueWei:  fmt.Sprint(rng.Intn(1000)),
			Failed:    rng.Intn(6) == 0,
		})
	}
	rng.Shuffle(len(ds.Txs), func(i, j int) { ds.Txs[i], ds.Txs[j] = ds.Txs[j], ds.Txs[i] })
	return ds, probes
}

// scanTxs is the brute-force reference: the txs of ds.Txs, in order,
// that keep reports true for.
func scanTxs(ds *Dataset, keep func(tx *Tx) bool) []*Tx {
	var out []*Tx
	for _, tx := range ds.Txs {
		if keep(tx) {
			out = append(out, tx)
		}
	}
	return out
}

func checkIndexAgainstScan(t *testing.T, ds *Dataset, probes []ethtypes.Address) {
	t.Helper()
	if !slices.IsSortedFunc(ds.Txs, compareTxs) {
		t.Fatal("Txs not in canonical order after Reindex")
	}
	same := func(what string, got, want []*Tx) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s: index returned %d txs, linear scan %d (or a different order)", what, len(got), len(want))
		}
	}
	for _, a := range probes {
		same(fmt.Sprintf("IncomingAll(%s)", a), ds.IncomingAll(a),
			scanTxs(ds, func(tx *Tx) bool { return tx.To == a && !tx.Failed }))
		for from := int64(-10); from <= 410; from += 10 {
			for to := from; to <= 410; to += 10 {
				same(fmt.Sprintf("IncomingOf(%s, %d, %d)", a, from, to), ds.IncomingOf(a, from, to),
					scanTxs(ds, func(tx *Tx) bool {
						return tx.To == a && !tx.Failed && tx.Timestamp >= from && tx.Timestamp < to
					}))
			}
		}
		for _, b := range probes {
			same(fmt.Sprintf("OutgoingTo(%s, %s)", a, b), ds.OutgoingTo(a, b),
				scanTxs(ds, func(tx *Tx) bool { return tx.From == a && tx.To == b && !tx.Failed }))
		}
	}
}

// The flat index must agree with brute-force scans of Txs for every
// address and window: after a first Reindex, after a second one
// (idempotence), and after an out-of-order append forces the sort.
func TestFlatIndexMatchesLinearScans(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		ds, probes := randomIndexFixture(seed)
		ds.Reindex()
		checkIndexAgainstScan(t, ds, probes)

		ds.Reindex()
		checkIndexAgainstScan(t, ds, probes)

		late := &Tx{Hash: ethtypes.HashData([]byte("prop-late")), Block: 5, Timestamp: 5,
			From: probes[0], To: probes[len(probes)-1], ValueWei: "7"}
		ds.Txs = append(ds.Txs, late)
		ds.Reindex()
		checkIndexAgainstScan(t, ds, probes)
		if got := ds.OutgoingTo(probes[0], probes[len(probes)-1]); len(got) != 1 || got[0] != late {
			t.Fatalf("seed %d: appended tx not indexed: %v", seed, got)
		}
	}
}
