package core

import (
	"testing"

	"ensdropcatch/internal/ethtypes"
)

// The Analyzer's lazy hash index is the only by-hash lookup over a
// dataset: it must find every crawled tx and nothing else.
func TestAnalyzerTxByHash(t *testing.T) {
	_, an := setup(t)
	for _, tx := range an.DS.Txs {
		if got := an.txByHash(tx.Hash); got != tx {
			t.Fatalf("txByHash(%s) = %v, want %v", tx.Hash, got, tx)
		}
	}
	if got := an.txByHash(ethtypes.HashData([]byte("missing"))); got != nil {
		t.Errorf("missing hash = %v, want nil", got)
	}
}

// TestResolutionLogMatchesTruth validates the authoritative measurement:
// with vendor resolution data, the misdirected set must equal the
// generator's ground truth exactly (no heuristic, no false positives).
func TestResolutionLogMatchesTruth(t *testing.T) {
	res, an := setup(t)
	rep := an.LossesFromResolutionLog(res.ResolutionLog)

	if rep.TotalResolutions != len(res.ResolutionLog) {
		t.Errorf("total %d, want %d", rep.TotalResolutions, len(res.ResolutionLog))
	}
	if rep.TotalResolutions == 0 {
		t.Fatal("empty resolution log")
	}

	found := map[string]bool{}
	for _, f := range rep.Misdirected {
		if !res.Truth.MisdirectedTxHashes[f.TxHash] {
			t.Errorf("authoritative analysis flagged non-misdirected tx %s (%s)", f.TxHash, f.Name)
		}
		found[f.TxHash.Hex()] = true
	}
	missed := 0
	for h := range res.Truth.MisdirectedTxHashes {
		if !found[h.Hex()] {
			missed++
		}
	}
	if missed > 0 {
		t.Errorf("authoritative analysis missed %d of %d truth misdirections",
			missed, len(res.Truth.MisdirectedTxHashes))
	}
	if rep.MisdirectedUSD <= 0 {
		t.Error("zero misdirected USD")
	}
	t.Logf("resolution log: %d resolutions, %d stale, %d misdirected (%.0f USD)",
		rep.TotalResolutions, rep.StaleResolutions, len(rep.Misdirected), rep.MisdirectedUSD)
}

// TestResolutionLogStaleClass checks that post-expiry pre-catch
// resolutions are counted as stale, matching Figure 7's hazard window.
func TestResolutionLogStaleClass(t *testing.T) {
	res, an := setup(t)
	rep := an.LossesFromResolutionLog(res.ResolutionLog)
	if rep.StaleResolutions == 0 {
		t.Error("no stale resolutions observed; the generator produces them")
	}
	// Stale resolutions deliver to the OLD owner, so they can never
	// exceed the total minus misdirections.
	if rep.StaleResolutions+len(rep.Misdirected) > rep.TotalResolutions {
		t.Error("stale + misdirected exceeds total")
	}
}

// TestHeuristicVsAuthoritative compares the paper's conservative
// heuristic against the authoritative measurement: the heuristic must
// undercount or roughly match (it is designed to minimize false
// positives), and the authoritative USD total should be in the same
// range.
func TestHeuristicVsAuthoritative(t *testing.T) {
	res, an := setup(t)
	heuristic := an.FinancialLosses()
	authoritative := an.LossesFromResolutionLog(res.ResolutionLog)

	t.Logf("heuristic: %d txs / %.0f USD; authoritative: %d txs / %.0f USD",
		heuristic.TxsAll, heuristic.USDAll,
		len(authoritative.Misdirected), authoritative.MisdirectedUSD)

	if len(authoritative.Misdirected) == 0 {
		t.Fatal("authoritative found nothing")
	}
	// Heuristic true positives cannot exceed the authoritative count
	// plus its (known) false-positive classes; sanity-bound the ratio.
	ratio := float64(heuristic.TxsAll) / float64(len(authoritative.Misdirected))
	if ratio > 3 {
		t.Errorf("heuristic flags %.1fx the authoritative count — too aggressive", ratio)
	}
}

func TestSubdomainsCollected(t *testing.T) {
	res, an := setup(t)
	st := an.CollectionStats()
	wantSubs := 0
	for _, d := range res.Truth.Domains {
		wantSubs += d.Subdomains
	}
	if st.Subdomains != wantSubs {
		t.Errorf("subdomains %d, truth %d", st.Subdomains, wantSubs)
	}
	if wantSubs == 0 {
		t.Error("world generated no subdomains")
	}
	// Paper ratio: 846,752 subs on 3.1M names ~= 0.27 per domain.
	perDomain := float64(st.Subdomains) / float64(st.Domains)
	if perDomain < 0.05 || perDomain > 0.6 {
		t.Errorf("subdomains per domain %.2f implausible (paper ~0.27)", perDomain)
	}
}
