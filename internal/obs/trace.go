package obs

// The distributed query trace model. A traced query carries a nonzero
// trace ID in its OPEN (wire protocol v5); every party that processes
// the query's messages — each worker site, wherever it is hosted, and
// the driver-side coordinator — records per-round spans: how many
// messages and payload bytes it received and sent while the site was
// in round r, and how long its handler was busy. Daemons ship their
// spans back in a TRACE frame when the session closes; the driver
// merges them with its own coordinator spans into a QueryTrace.
//
// The spans are exact, not sampled: summed over all sites and rounds
// they reproduce the session's Stats aggregates (messages, payload
// bytes, rounds, per-site busy time), which is what makes the trace a
// trustworthy decomposition of a benchmark number rather than a
// separate estimate.

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// CoordinatorSite is the pseudo site ID of driver-side coordinator
// spans (mirrors cluster.Coordinator).
const CoordinatorSite = -1

// RoundSpan is one site's activity while it was in one round.
type RoundSpan struct {
	Round    int   `json:"round"`
	BusyNs   int64 `json:"busy_ns"`
	MsgsIn   int64 `json:"msgs_in"`
	MsgsOut  int64 `json:"msgs_out"`
	BytesIn  int64 `json:"bytes_in"`
	BytesOut int64 `json:"bytes_out"`
	Rounds   int64 `json:"rounds"` // rounds the site recorded while in this span
}

// SiteTrace is one site's span sequence, in round order.
type SiteTrace struct {
	Site  int         `json:"site"` // CoordinatorSite for the driver
	Spans []RoundSpan `json:"spans"`
}

// QueryTrace is the assembled span tree of one traced query.
type QueryTrace struct {
	TraceID uint64 `json:"trace_id"`
	// Complete is false when some spans could not be collected — a
	// pre-v5 daemon in the deployment (it never saw the trace ID), or a
	// connection lost before its TRACE frame arrived.
	Complete bool        `json:"complete"`
	Sites    []SiteTrace `json:"sites"`
}

// Totals sums the trace's spans — the numbers that must agree with the
// session's Stats aggregates.
func (t *QueryTrace) Totals() (busy time.Duration, msgsIn, msgsOut, bytesIn, bytesOut, rounds int64) {
	var busyNs int64
	for _, s := range t.Sites {
		for _, sp := range s.Spans {
			busyNs += sp.BusyNs
			msgsIn += sp.MsgsIn
			msgsOut += sp.MsgsOut
			bytesIn += sp.BytesIn
			bytesOut += sp.BytesOut
			rounds += sp.Rounds
		}
	}
	return time.Duration(busyNs), msgsIn, msgsOut, bytesIn, bytesOut, rounds
}

// Flame renders a human-readable flame summary: one block per site,
// one line per round, bars proportional to busy time.
func (t *QueryTrace) Flame() string {
	var b strings.Builder
	busy, msgsIn, _, bytesIn, _, rounds := t.Totals()
	fmt.Fprintf(&b, "trace %#x  sites=%d  rounds=%d  busy=%v  msgs=%d  bytes=%d",
		t.TraceID, len(t.Sites), rounds, busy.Round(time.Microsecond), msgsIn, bytesIn)
	if !t.Complete {
		b.WriteString("  (incomplete)")
	}
	b.WriteByte('\n')
	var maxBusy int64 = 1
	for _, s := range t.Sites {
		for _, sp := range s.Spans {
			if sp.BusyNs > maxBusy {
				maxBusy = sp.BusyNs
			}
		}
	}
	for _, s := range t.Sites {
		var siteBusy int64
		for _, sp := range s.Spans {
			siteBusy += sp.BusyNs
		}
		if s.Site == CoordinatorSite {
			fmt.Fprintf(&b, "  coordinator  busy=%v\n", time.Duration(siteBusy).Round(time.Microsecond))
		} else {
			fmt.Fprintf(&b, "  site %d  busy=%v\n", s.Site, time.Duration(siteBusy).Round(time.Microsecond))
		}
		for _, sp := range s.Spans {
			bar := strings.Repeat("█", 1+int(sp.BusyNs*24/maxBusy))
			fmt.Fprintf(&b, "    round %-3d %-25s busy=%-10v in=%d/%dB out=%d/%dB\n",
				sp.Round, bar, time.Duration(sp.BusyNs).Round(time.Microsecond),
				sp.MsgsIn, sp.BytesIn, sp.MsgsOut, sp.BytesOut)
		}
	}
	return b.String()
}

// SpanRecorder accumulates RoundSpans for the sites one party hosts.
// It is safe for concurrent use: each site's Recv runs on its own
// goroutine, and snapshots race with nothing because every mutation
// holds the lock. Recording is O(1) per message with one short
// critical section — cheap enough to ride the hot path only when the
// query is actually traced (nil recorder = tracing off).
type SpanRecorder struct {
	id    uint64
	mu    sync.Mutex
	sites map[int]*siteAcc
}

type siteAcc struct {
	cur   int // current round index
	spans []RoundSpan
}

// NewSpanRecorder returns a recorder for trace id.
func NewSpanRecorder(id uint64) *SpanRecorder {
	return &SpanRecorder{id: id, sites: make(map[int]*siteAcc)}
}

// ID reports the trace ID.
func (r *SpanRecorder) ID() uint64 { return r.id }

// span returns the accumulator's span for its current round, creating
// site and span on first touch. Caller holds r.mu.
func (r *SpanRecorder) span(site int) *RoundSpan {
	acc := r.sites[site]
	if acc == nil {
		acc = &siteAcc{}
		r.sites[site] = acc
	}
	if n := len(acc.spans); n == 0 || acc.spans[n-1].Round != acc.cur {
		acc.spans = append(acc.spans, RoundSpan{Round: acc.cur})
	}
	return &acc.spans[len(acc.spans)-1]
}

// RecordIn attributes a run of msgs delivered-and-processed messages to
// the site's current round — their summed payload bytes, the handler's
// busy time over the run, and the rounds the handler recorded, which
// then advance the site's round index.
func (r *SpanRecorder) RecordIn(site int, msgs, bytes int, busy time.Duration, rounds int64) {
	r.mu.Lock()
	sp := r.span(site)
	sp.MsgsIn += int64(msgs)
	sp.BytesIn += int64(bytes)
	sp.BusyNs += int64(busy)
	sp.Rounds += rounds
	r.sites[site].cur += int(rounds)
	r.mu.Unlock()
}

// RecordOut attributes one sent message to the site's current round.
func (r *SpanRecorder) RecordOut(site int, bytes int) {
	r.mu.Lock()
	sp := r.span(site)
	sp.MsgsOut++
	sp.BytesOut += int64(bytes)
	r.mu.Unlock()
}

// AddRounds records rounds outside a Recv (driver-level round
// accounting, e.g. treesim's coordinator phases) and advances the
// site's round index.
func (r *SpanRecorder) AddRounds(site int, n int64) {
	r.mu.Lock()
	sp := r.span(site)
	sp.Rounds += n
	r.sites[site].cur += int(n)
	r.mu.Unlock()
}

// Snapshot returns the recorded spans, sites ascending, spans in round
// order.
func (r *SpanRecorder) Snapshot() []SiteTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SiteTrace, 0, len(r.sites))
	for site, acc := range r.sites {
		spans := append([]RoundSpan(nil), acc.spans...)
		out = append(out, SiteTrace{Site: site, Spans: spans})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// --- wire codec ---

// The TRACE frame body is the little-endian encoding of a span set:
//
//	u32 nSites, then per site:
//	  i64 site, u32 nSpans, then per span:
//	    u64 round, u64 busyNs, u64 msgsIn, u64 msgsOut,
//	    u64 bytesIn, u64 bytesOut, u64 rounds
//
// encoded here (not in internal/wire) so both transport ends and the
// tests share one codec without a dependency cycle.

// AppendSpans appends the codec encoding of sites to dst.
func AppendSpans(dst []byte, sites []SiteTrace) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(sites)))
	for _, s := range sites {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(s.Site)))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.Spans)))
		for _, sp := range s.Spans {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(sp.Round)))
			dst = binary.LittleEndian.AppendUint64(dst, uint64(sp.BusyNs))
			dst = binary.LittleEndian.AppendUint64(dst, uint64(sp.MsgsIn))
			dst = binary.LittleEndian.AppendUint64(dst, uint64(sp.MsgsOut))
			dst = binary.LittleEndian.AppendUint64(dst, uint64(sp.BytesIn))
			dst = binary.LittleEndian.AppendUint64(dst, uint64(sp.BytesOut))
			dst = binary.LittleEndian.AppendUint64(dst, uint64(sp.Rounds))
		}
	}
	return dst
}

// DecodeSpans decodes a span set encoded by AppendSpans. The whole
// input must be consumed.
func DecodeSpans(b []byte) ([]SiteTrace, error) {
	u32 := func() (uint32, bool) {
		if len(b) < 4 {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(b)
		b = b[4:]
		return v, true
	}
	u64 := func() (uint64, bool) {
		if len(b) < 8 {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(b)
		b = b[8:]
		return v, true
	}
	errTrunc := fmt.Errorf("obs: truncated span encoding")
	nSites, ok := u32()
	if !ok {
		return nil, errTrunc
	}
	// Each site costs at least 12 bytes, each span 56: reject length
	// claims the input cannot hold before allocating.
	if int64(nSites)*12 > int64(len(b)) {
		return nil, fmt.Errorf("obs: span encoding claims %d sites in %d bytes", nSites, len(b))
	}
	sites := make([]SiteTrace, 0, nSites)
	for i := uint32(0); i < nSites; i++ {
		site, ok1 := u64()
		nSpans, ok2 := u32()
		if !ok1 || !ok2 {
			return nil, errTrunc
		}
		if int64(nSpans)*56 > int64(len(b)) {
			return nil, fmt.Errorf("obs: span encoding claims %d spans in %d bytes", nSpans, len(b))
		}
		st := SiteTrace{Site: int(int64(site)), Spans: make([]RoundSpan, 0, nSpans)}
		for j := uint32(0); j < nSpans; j++ {
			var f [7]uint64
			for k := range f {
				v, ok := u64()
				if !ok {
					return nil, errTrunc
				}
				f[k] = v
			}
			st.Spans = append(st.Spans, RoundSpan{
				Round:  int(int64(f[0])),
				BusyNs: int64(f[1]), MsgsIn: int64(f[2]), MsgsOut: int64(f[3]),
				BytesIn: int64(f[4]), BytesOut: int64(f[5]), Rounds: int64(f[6]),
			})
		}
		sites = append(sites, st)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("obs: %d trailing bytes after span encoding", len(b))
	}
	return sites, nil
}
