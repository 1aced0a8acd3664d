package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format: one # TYPE line per metric, plain samples for counters and
// gauges, and cumulative le-labelled _bucket series plus _sum/_count for
// histograms. Log₂ buckets expose le="2^b - 1" upper bounds.
func WritePrometheus(w io.Writer, snap []MetricValue) error {
	bw := bufio.NewWriter(w)
	for _, mv := range snap {
		if mv.Help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", mv.Name, mv.Help)
		}
		switch mv.Kind {
		case KindHistogram:
			fmt.Fprintf(bw, "# TYPE %s histogram\n", mv.Name)
			if mv.Hist == nil {
				continue
			}
			var cum int64
			for b := 0; b < HistBuckets; b++ {
				if mv.Hist.Buckets[b] == 0 && b > 0 {
					continue // sparse: only emit occupied buckets (plus le="0")
				}
				cum += mv.Hist.Buckets[b]
				ub := int64(0)
				if b > 0 {
					ub = int64(1)<<b - 1
				}
				fmt.Fprintf(bw, "%s_bucket{le=\"%d\"} %d\n", mv.Name, ub, cum)
			}
			fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", mv.Name, mv.Hist.Count)
			fmt.Fprintf(bw, "%s_sum %d\n", mv.Name, mv.Hist.Sum)
			fmt.Fprintf(bw, "%s_count %d\n", mv.Name, mv.Hist.Count)
		case KindGauge:
			fmt.Fprintf(bw, "# TYPE %s gauge\n", mv.Name)
			fmt.Fprintf(bw, "%s %d\n", mv.Name, mv.Value)
		default:
			fmt.Fprintf(bw, "# TYPE %s counter\n", mv.Name)
			fmt.Fprintf(bw, "%s %d\n", mv.Name, mv.Value)
		}
	}
	return bw.Flush()
}

// WriteJSONL writes the snapshot as one JSON object per line:
//
//	{"metric":NAME,"kind":KIND,"value":V}                          counter/gauge
//	{"metric":NAME,"kind":"histogram","count":C,"sum":S,
//	 "buckets":[[UPPER,COUNT],...]}                                histogram
//
// with only occupied histogram buckets listed as [upper-bound, count]
// pairs.
func WriteJSONL(w io.Writer, snap []MetricValue) error {
	bw := bufio.NewWriter(w)
	var buf []byte
	for _, mv := range snap {
		buf = buf[:0]
		buf = append(buf, `{"metric":"`...)
		buf = append(buf, mv.Name...)
		buf = append(buf, `","kind":"`...)
		buf = append(buf, mv.Kind.String()...)
		buf = append(buf, '"')
		if mv.Kind == KindHistogram && mv.Hist != nil {
			buf = append(buf, `,"count":`...)
			buf = strconv.AppendInt(buf, mv.Hist.Count, 10)
			buf = append(buf, `,"sum":`...)
			buf = strconv.AppendInt(buf, mv.Hist.Sum, 10)
			buf = append(buf, `,"buckets":[`...)
			first := true
			for b := 0; b < HistBuckets; b++ {
				if mv.Hist.Buckets[b] == 0 {
					continue
				}
				if !first {
					buf = append(buf, ',')
				}
				first = false
				ub := int64(0)
				if b > 0 {
					ub = int64(1)<<b - 1
				}
				buf = append(buf, '[')
				buf = strconv.AppendInt(buf, ub, 10)
				buf = append(buf, ',')
				buf = strconv.AppendInt(buf, mv.Hist.Buckets[b], 10)
				buf = append(buf, ']')
			}
			buf = append(buf, ']')
		} else {
			buf = append(buf, `,"value":`...)
			buf = strconv.AppendInt(buf, mv.Value, 10)
		}
		buf = append(buf, '}', '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// FprintHistogram renders a compact text distribution for reports: count,
// mean, quantiles, and a power-of-two bucket bar chart. An empty histogram
// prints nothing.
func FprintHistogram(w io.Writer, label string, hv HistValue) {
	if hv.Count == 0 {
		return
	}
	mean := float64(hv.Sum) / float64(hv.Count)
	fmt.Fprintf(w, "  %-26s n=%d mean=%.1f p50=%d p90=%d p99=%d max≤%d\n",
		label, hv.Count, mean,
		hv.Quantile(0.50), hv.Quantile(0.90), hv.Quantile(0.99), hv.Max())
	var peak int64
	lo, hi := -1, -1
	for b := 0; b < HistBuckets; b++ {
		if hv.Buckets[b] > 0 {
			if lo < 0 {
				lo = b
			}
			hi = b
			if hv.Buckets[b] > peak {
				peak = hv.Buckets[b]
			}
		}
	}
	for b := lo; b <= hi; b++ {
		width := int(hv.Buckets[b] * 40 / peak)
		var span string
		switch b {
		case 0:
			span = "0"
		case 1:
			span = "1"
		default:
			span = fmt.Sprintf("%d-%d", int64(1)<<(b-1), int64(1)<<b-1)
		}
		fmt.Fprintf(w, "    %12s %8d %s\n", span, hv.Buckets[b], strings.Repeat("#", width))
	}
}
