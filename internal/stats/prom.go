// Prometheus-style text exposition: counters, gauges, and the
// log-scale histograms. WriteProm emits classic text format 0.0.4 (the
// subset any scraper accepts; histograms render as summaries with
// approximate quantiles, no exemplars — the 0.0.4 grammar has no place
// for them). WriteOpenMetrics emits OpenMetrics 1.0, where histograms
// render as histogram-typed families with per-bucket exemplars. The
// introspection plane's /metrics endpoint serves whichever one the
// scraper's Accept header selects.
//
// Metric keys translate as follows: dots and other non-identifier
// characters in the name become underscores ("rpc.calls" ->
// "rpc_calls"), and the label block KeyWithLabels rendered
// ("{proto=\"shm\"}", found with SplitKey) passes through verbatim, so a
// label value is never sanitized into a name. Output is in
// sorted key order, so consecutive scrapes of an unchanged registry are
// byte-identical.
package stats

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// promSeries is one exposition line of a family: the (possibly empty)
// canonical label block, and the original registry key to look the
// value up under.
type promSeries struct {
	labels string
	key    string
}

// promFamilies groups registry keys into exposition families, each
// family and each series within it sorted.
func promFamilies(keys []string) ([]string, map[string][]promSeries) {
	fams := make(map[string][]promSeries)
	var order []string
	for _, key := range keys { // keys arrive sorted
		name, _ := SplitKey(key)
		labels := key[len(name):] // already in exposition syntax
		fam := sanitizePromName(name)
		if _, seen := fams[fam]; !seen {
			order = append(order, fam)
		}
		fams[fam] = append(fams[fam], promSeries{labels: labels, key: key})
	}
	sort.Strings(order)
	return order, fams
}

// WriteProm renders the snapshot in Prometheus text exposition format.
func (s RegistrySnapshot) WriteProm(w io.Writer) error {
	var b strings.Builder

	order, fams := promFamilies(s.CounterNames())
	for _, fam := range order {
		fmt.Fprintf(&b, "# TYPE %s counter\n", fam)
		for _, sr := range fams[fam] {
			fmt.Fprintf(&b, "%s%s %d\n", fam, sr.labels, s.Counters[sr.key])
		}
	}

	order, fams = promFamilies(s.GaugeNames())
	for _, fam := range order {
		fmt.Fprintf(&b, "# TYPE %s gauge\n", fam)
		for _, sr := range fams[fam] {
			fmt.Fprintf(&b, "%s%s %d\n", fam, sr.labels, s.Gauges[sr.key])
		}
	}

	// Histograms render as summaries: quantile series plus _sum/_count.
	// The classic 0.0.4 grammar allows nothing after the value but a
	// timestamp, so exemplars never appear here — scrapers that want
	// them negotiate the OpenMetrics exposition (WriteOpenMetrics) or
	// read the JSON snapshot.
	order, fams = promFamilies(s.HistogramNames())
	for _, fam := range order {
		fmt.Fprintf(&b, "# TYPE %s summary\n", fam)
		for _, sr := range fams[fam] {
			h := s.Histograms[sr.key]
			for _, q := range []struct {
				q string
				v int64
			}{{"0.5", h.P50}, {"0.9", h.P90}, {"0.99", h.P99}} {
				fmt.Fprintf(&b, "%s%s %d\n", fam, mergeLabels(sr.labels, `quantile="`+q.q+`"`), q.v)
			}
			fmt.Fprintf(&b, "%s_sum%s %d\n", fam, sr.labels, h.Sum)
			fmt.Fprintf(&b, "%s_count%s %d\n", fam, sr.labels, h.Count)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteOpenMetrics renders the snapshot as an OpenMetrics 1.0 text
// exposition — the format a scraper selects with
// `Accept: application/openmetrics-text`. It differs from the classic
// 0.0.4 output where the formats genuinely diverge: counter samples
// carry the mandatory `_total` suffix, the body ends with `# EOF`, and
// histograms render as histogram-typed families whose bucket lines
// carry exemplars (`fam_bucket{le="..."} <cum> # {trace_id="<hex>"}
// <value>`), so a surprising bucket links to an actual retained trace.
// Only buckets that pinned an exemplar are emitted individually — the
// mandatory `le="+Inf"` bucket always closes the family — which is the
// subset OpenMetrics needs to attach exemplars while staying valid.
func (s RegistrySnapshot) WriteOpenMetrics(w io.Writer) error {
	var b strings.Builder

	order, fams := promFamilies(s.CounterNames())
	for _, fam := range order {
		// An OpenMetrics counter family is named without the _total
		// suffix its samples must carry.
		base := strings.TrimSuffix(fam, "_total")
		fmt.Fprintf(&b, "# TYPE %s counter\n", base)
		for _, sr := range fams[fam] {
			fmt.Fprintf(&b, "%s_total%s %d\n", base, sr.labels, s.Counters[sr.key])
		}
	}

	order, fams = promFamilies(s.GaugeNames())
	for _, fam := range order {
		fmt.Fprintf(&b, "# TYPE %s gauge\n", fam)
		for _, sr := range fams[fam] {
			fmt.Fprintf(&b, "%s%s %d\n", fam, sr.labels, s.Gauges[sr.key])
		}
	}

	order, fams = promFamilies(s.HistogramNames())
	for _, fam := range order {
		fmt.Fprintf(&b, "# TYPE %s histogram\n", fam)
		for _, sr := range fams[fam] {
			h := s.Histograms[sr.key]
			for _, ex := range h.Exemplars {
				fmt.Fprintf(&b, "%s_bucket%s %d # {trace_id=\"%016x\"} %d\n",
					fam, mergeLabels(sr.labels, fmt.Sprintf(`le="%d"`, ex.Upper)), ex.Cum, ex.Trace, ex.Value)
			}
			fmt.Fprintf(&b, "%s_bucket%s %d\n", fam, mergeLabels(sr.labels, `le="+Inf"`), h.Count)
			fmt.Fprintf(&b, "%s_sum%s %d\n", fam, sr.labels, h.Sum)
			fmt.Fprintf(&b, "%s_count%s %d\n", fam, sr.labels, h.Count)
		}
	}
	b.WriteString("# EOF\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// sanitizePromName rewrites a registry name into the exposition
// alphabet [a-zA-Z0-9_:], mapping everything else to '_'.
func sanitizePromName(n string) string {
	var b strings.Builder
	b.Grow(len(n))
	for i, r := range n {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if !ok {
			b.WriteByte('_')
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}

// mergeLabels merges an extra label into an existing (possibly empty)
// canonical label block.
func mergeLabels(block, extra string) string {
	if block == "" {
		return "{" + extra + "}"
	}
	return strings.TrimSuffix(block, "}") + "," + extra + "}"
}
