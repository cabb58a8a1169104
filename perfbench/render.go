package main

import (
	"fmt"
	"io"

	"ensdropcatch/internal/core"
	"ensdropcatch/internal/report"
	"ensdropcatch/internal/stats"
)

// paper holds every analysis ensanalyze prints for a loaded dataset,
// computed before rendering so the two are timed apart.
type paper struct {
	stats     core.DataCollectionStats
	pop       *core.Population
	monthly   []core.MonthlyPoint
	peakMonth string
	peak      int
	delays    core.ReregDelayStats
	survival  *core.SurvivalReport
	freq      map[int]int
	cdf       core.ReregistrantActivity
	table1    *core.Table1
	resale    *core.ResaleReport
	losses    *core.LossReport
	hijack    []float64
}

// render writes the report ensanalyze -data prints, section by section
// in its order, byte for byte.
func render(w io.Writer, p *paper) {
	section := func(title string) { fmt.Fprintf(w, "\n================ %s ================\n\n", title) }

	st := p.stats
	section("Data Collection (§3)")
	fmt.Fprint(w, report.Table(
		[]string{"metric", "value"},
		[][]string{
			{"ENS domains", report.Count(st.Domains)},
			{"subdomains", report.Count(st.Subdomains)},
			{"registration events", report.Count(st.Events)},
			{"unrecoverable names", report.Count(st.Unrecovered)},
			{"recovery rate", report.Percent(st.RecoveryRate)},
			{"transactions", report.Count(st.Transactions)},
		}))
	fmt.Fprint(w, "\n", report.Table(
		[]string{"population", "count"},
		[][]string{
			{"re-registered (dropcaught)", report.Count(len(p.pop.Reregistered))},
			{"expired, never re-registered", report.Count(len(p.pop.ExpiredNotRereg))},
			{"re-registered by same owner", report.Count(len(p.pop.SameOwnerRereg))},
			{"active at window end", report.Count(len(p.pop.ActiveAtEnd))},
		}))

	section("Figure 2: monthly registrations / expirations / re-registrations")
	rows := make([][]string, 0, len(p.monthly))
	for _, m := range p.monthly {
		rows = append(rows, []string{m.Month, report.Count(m.Registrations), report.Count(m.Expirations), report.Count(m.Reregistrations)})
	}
	fmt.Fprint(w, report.Table([]string{"month", "registrations", "expirations", "re-registrations"}, rows))
	fmt.Fprintf(w, "\npeak monthly re-registrations: %s in %s (paper: 25,193 at 3.1M scale)\n", report.Count(p.peak), p.peakMonth)

	d := p.delays
	section("Figure 3: days between expiration and re-registration")
	fmt.Fprint(w, report.HistogramASCII(stats.Histogram(d.DelaysDays, 24), 48))
	fmt.Fprintf(w, "\nre-registrations: %s total\n", report.Count(d.Total))
	fmt.Fprintf(w, "  at a positive premium (auction): %s (paper: 16,092)\n", report.Count(d.AtPremium))
	fmt.Fprintf(w, "  on the day the premium ended:    %s (paper: 20,014)\n", report.Count(d.SameDayAsPremiumEnd))
	fmt.Fprintf(w, "  within 14 days of premium end:   %s (paper: 56,792)\n", report.Count(d.ShortlyAfterPremiumEnd))

	sv := p.survival
	section("Time-to-catch survival (censoring-corrected Figure 3)")
	fmt.Fprintf(w, "released names: %s, caught: %s\n\n", report.Count(sv.Released), report.Count(sv.Caught))
	rows = nil
	for _, day := range []float64{1, 7, 21, 60, 90, 180, 365} {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f days", day),
			report.Percent(1 - stats.SurvivalAt(sv.All, day)),
			report.Percent(1 - stats.SurvivalAt(sv.ByIncomeTercile[0], day)),
			report.Percent(1 - stats.SurvivalAt(sv.ByIncomeTercile[1], day)),
			report.Percent(1 - stats.SurvivalAt(sv.ByIncomeTercile[2], day)),
		})
	}
	fmt.Fprint(w, report.Table(
		[]string{"t after release", "caught (all)", "low income", "mid income", "high income"}, rows))
	fmt.Fprintln(w, "\nhigher-income names are caught earlier — §4.3's income effect as a")
	fmt.Fprintln(w, "time-to-catch gradient, with window-end censoring handled properly.")

	section("Figure 4: times a domain was re-registered by a different owner")
	rows = nil
	for k := 1; ; k++ {
		n, ok := p.freq[k]
		if !ok {
			if k > 8 {
				break
			}
			continue
		}
		rows = append(rows, []string{fmt.Sprint(k), report.Count(n)})
	}
	fmt.Fprint(w, report.Table([]string{"re-registrations", "domains"}, rows))
	multi := 0
	for k, n := range p.freq {
		if k >= 2 {
			multi += n
		}
	}
	fmt.Fprintf(w, "\ndomains registered more than twice: %s (paper: 12,614)\n", report.Count(multi))

	section("Figure 5: re-registrations per unique address (CDF)")
	fmt.Fprint(w, report.CDFASCII(p.cdf.CDF))
	fmt.Fprintf(w, "\naddresses with >1 re-registration: %s (paper: 19,763)\n", report.Count(p.cdf.MultipleCatchers))
	fmt.Fprintf(w, "top catchers: %v (paper: 5,070 / 3,165 / 2,421)\n", p.cdf.Top)

	renderTable1(w, section, p.table1)

	rs := p.resale
	section("Resale market (§4.2)")
	fmt.Fprint(w, report.Table(
		[]string{"metric", "value", "paper"},
		[][]string{
			{"re-registered domains", report.Count(rs.Reregistered), "241,283"},
			{"listed on OpenSea", fmt.Sprintf("%s (%s)", report.Count(rs.Listed), report.Percent(rs.ListedFraction)), "19,987 (8%)"},
			{"sold", report.Count(rs.Sold), "12,130"},
			{"median sale price", report.USD(rs.MedianSaleUSD()), "-"},
		}))

	renderLosses(w, section, p.losses, p.hijack)
}

func renderTable1(w io.Writer, section func(string), tbl *core.Table1) {
	section("Table 1: re-registered vs control features")
	var rows [][]string
	for _, row := range tbl.Rows {
		var rv, cv, rank string
		if row.Numeric {
			rv = fmt.Sprintf("%.1f", row.ReregMean)
			cv = fmt.Sprintf("%.1f", row.ControlMean)
			rank = fmt.Sprintf("%.2g", row.PRank)
		} else {
			rv = fmt.Sprintf("%s (%s)", report.Count(row.ReregCount), report.Percent(row.ReregFrac))
			cv = fmt.Sprintf("%s (%s)", report.Count(row.ControlCount), report.Percent(row.ControlFrac))
			rank = "-"
		}
		sig := "yes"
		if !row.Significant {
			sig = "NO"
		}
		rows = append(rows, []string{row.Feature, rv, cv, fmt.Sprintf("%.2g", row.P), rank, sig})
	}
	fmt.Fprint(w, report.Table([]string{"feature", "re-registered", "control", "p (t/z)", "p (rank)", "significant"}, rows))
	fmt.Fprintf(w, "\ngroup size: %s each (paper: 241,283)\n", report.Count(tbl.GroupSize))

	section("Figure 6: income (USD) of previous owners — CDFs")
	rcdf, ccdf := tbl.IncomeCDFs()
	fmt.Fprintln(w, "re-registered:")
	fmt.Fprint(w, report.CDFASCII(rcdf))
	fmt.Fprintln(w, "control:")
	fmt.Fprint(w, report.CDFASCII(ccdf))
}

func renderLosses(w io.Writer, section func(string), rep *core.LossReport, funds []float64) {
	section("Financial losses (§4.4)")
	fmt.Fprintln(w, "Figure 7: hijackable USD sent to expired domains' wallets")
	fmt.Fprint(w, report.HistogramASCII(stats.LogHistogram(funds, 12), 48))

	fmt.Fprintln(w, "\nFigure 8: misdirected USD per affected domain")
	fmt.Fprint(w, report.HistogramASCII(stats.LogHistogram(rep.MisdirectedAmounts(), 12), 48))

	fmt.Fprintln(w, "\nFigure 9/11: transactions from common sender c to a1 vs a2")
	scatter := rep.TxScatter()
	oneToOne := 0
	for _, p := range scatter {
		if p.ToA1 == 1 && p.ToA2 == 1 {
			oneToOne++
		}
	}
	fmt.Fprintf(w, "  points: %d; exact one-to-one: %d\n", len(scatter), oneToOne)

	fmt.Fprint(w, "\n", report.Table(
		[]string{"metric", "measured", "paper"},
		[][]string{
			{"domains (non-custodial c)", report.Count(rep.DomainsNonCustodial), "484"},
			{"domains (incl. Coinbase c)", report.Count(rep.DomainsWithCoinbase), "940"},
			{"transactions (non-custodial)", report.Count(rep.TxsNonCustodial), "1,617"},
			{"transactions (all)", report.Count(rep.TxsAll), "2,633"},
			{"unique senders (non-custodial)", report.Count(rep.UniqueSendersNonC), "195"},
			{"unique senders (all)", report.Count(rep.UniqueSendersAll), "201"},
			{"avg USD per domain (non-cust.)", report.USD(rep.AvgUSDPerDomainNonCustodial()), "1,944 USD"},
			{"avg USD per domain (all)", report.USD(rep.AvgUSDPerDomainAll()), "1,877 USD"},
		}))

	if studies := rep.CaseStudies(3); len(studies) > 0 {
		fmt.Fprintln(w, "\nCase studies (cf. profittrailer.eth / spambot.eth in §4.4):")
		for _, s := range studies {
			fmt.Fprintf(w, "  * %s\n", s.Narrative)
		}
	}

	profits := rep.CatcherProfits()
	fmt.Fprintln(w, "\nFigure 10: re-registration cost vs income from common senders")
	fmt.Fprint(w, report.Table(
		[]string{"metric", "measured", "paper"},
		[][]string{
			{"catcher addresses in scenario", report.Count(len(profits.Catchers)), "-"},
			{"profitable fraction", report.Percent(profits.ProfitableFraction), "91%"},
			{"average profit", report.USD(profits.AvgProfitUSD), "4,700 USD"},
		}))
}
