package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"contextrank"
	"contextrank/internal/cluster"
	"contextrank/internal/resilience"
	"contextrank/internal/serve"
	"contextrank/internal/wire"
)

func TestParseShards(t *testing.T) {
	shards, err := parseShards("a=http://h1:1, b=http://h2:2/ ,c=http://h3:3")
	if err != nil {
		t.Fatal(err)
	}
	want := []cluster.Shard{
		{Name: "a", URL: "http://h1:1"},
		{Name: "b", URL: "http://h2:2"}, // trailing slash trimmed
		{Name: "c", URL: "http://h3:3"},
	}
	if len(shards) != len(want) {
		t.Fatalf("parsed %d shards, want %d", len(shards), len(want))
	}
	for i := range want {
		if shards[i] != want[i] {
			t.Fatalf("shard %d = %+v, want %+v", i, shards[i], want[i])
		}
	}
	for _, bad := range []string{"", "nourl", "=http://h:1", "a=", "a=http://h:1,,b=http://h:2"} {
		if _, err := parseShards(bad); err == nil {
			t.Fatalf("shard list %q parsed without error", bad)
		}
	}
}

func TestRouterWriteTimeoutSizing(t *testing.T) {
	if got := routerWriteTimeout(0); got != 30*time.Second {
		t.Fatalf("floor = %v", got)
	}
	if got := routerWriteTimeout(time.Minute); got != 70*time.Second {
		t.Fatalf("budget = %v", got)
	}
}

// TestRouterGracefulDrain proves the router's SIGTERM contract without any
// shards: an in-flight routed request completes, readiness flips off, and
// the shared drain returns nil within the drain deadline.
func TestRouterGracefulDrain(t *testing.T) {
	rt, err := cluster.New(cluster.Config{Shards: []cluster.Shard{{Name: "s0", URL: "http://127.0.0.1:1"}}})
	if err != nil {
		t.Fatal(err)
	}
	inFlight := make(chan struct{})
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(inFlight)
		time.Sleep(300 * time.Millisecond)
		w.WriteHeader(http.StatusOK)
	})
	httpServer := &http.Server{Handler: handler}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sig := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- resilience.ServeUntilSignal(httpServer, ln, sig, 5*time.Second, &rt.Readiness, io.Discard)
	}()

	reqErr := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/slow")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("in-flight request status %d", resp.StatusCode)
			}
		}
		reqErr <- err
	}()
	<-inFlight
	sig <- syscall.SIGTERM

	if err := <-done; err != nil {
		t.Fatalf("ServeUntilSignal = %v, want nil", err)
	}
	if err := <-reqErr; err != nil {
		t.Fatalf("in-flight request not drained: %v", err)
	}
	if rt.Ready() {
		t.Fatal("readiness not flipped off during drain")
	}
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), 200*time.Millisecond); err == nil {
		t.Fatal("listener still accepting after drain")
	}
}

func TestStartProbeLoopDisabled(t *testing.T) {
	rt, err := cluster.New(cluster.Config{Shards: []cluster.Shard{{Name: "s0", URL: "http://127.0.0.1:1"}}})
	if err != nil {
		t.Fatal(err)
	}
	stop := startProbeLoop(rt, 0)
	stop() // must be a no-op, not a close of an unowned channel
}

// ---------------------------------------------------------------------------
// Multi-process differential test.
// ---------------------------------------------------------------------------

// clusterHarness is the spawned topology: three cmd/serve -shard processes,
// one plain cmd/serve reference process (the single-process engine routed
// responses are byte-compared against), and the two built binaries.
type clusterHarness struct {
	serveBin, routerBin string
	shardNames          []string
	shardAddrs          []string
	shardProcs          []*managedProc
	refAddr             string
	client              *http.Client
}

type managedProc struct {
	cmd  *exec.Cmd
	addr string
}

// startProc launches bin, waits for the "<readyPrefix><addr>" line on
// stderr, and returns the managed process. The process is killed at test
// cleanup unless it has already been killed explicitly.
func startProc(t *testing.T, bin, readyPrefix string, args ...string) *managedProc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, readyPrefix); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return &managedProc{cmd: cmd, addr: addr}
	case <-time.After(90 * time.Second):
		t.Fatalf("%s %v never reported ready", filepath.Base(bin), args)
		return nil
	}
}

var (
	harnessOnce sync.Once
	harnessBins struct {
		dir, serveBin, routerBin, bundle string
		err                              error
	}
)

// buildArtifacts compiles the serve and router binaries once per test run
// and writes the shared offline bundle all processes load.
func buildArtifacts(t *testing.T) (serveBin, routerBin, bundle string) {
	t.Helper()
	harnessOnce.Do(func() {
		dir, err := os.MkdirTemp("", "cluster-harness-")
		if err != nil {
			harnessBins.err = err
			return
		}
		harnessBins.dir = dir
		harnessBins.serveBin = filepath.Join(dir, "serve")
		harnessBins.routerBin = filepath.Join(dir, "router")
		harnessBins.bundle = filepath.Join(dir, "bundle.bin")
		for _, build := range [][]string{
			{"build", "-o", harnessBins.serveBin, "contextrank/cmd/serve"},
			{"build", "-o", harnessBins.routerBin, "contextrank/cmd/router"},
		} {
			cmd := exec.Command("go", build...)
			cmd.Dir = "../.."
			if out, err := cmd.CombinedOutput(); err != nil {
				harnessBins.err = fmt.Errorf("go %v: %v\n%s", build, err, out)
				return
			}
		}
		sys := contextrank.Build(contextrank.SmallConfig(42))
		ranker, err := sys.TrainRanker()
		if err != nil {
			harnessBins.err = err
			return
		}
		f, err := os.Create(harnessBins.bundle)
		if err != nil {
			harnessBins.err = err
			return
		}
		if err := ranker.SaveBundle(f); err != nil {
			harnessBins.err = err
			return
		}
		harnessBins.err = f.Close()
	})
	if harnessBins.err != nil {
		t.Fatal(harnessBins.err)
	}
	return harnessBins.serveBin, harnessBins.routerBin, harnessBins.bundle
}

// startCluster spawns the shard fleet plus the single-process reference
// engine, all loading the same bundle.
func startCluster(t *testing.T) *clusterHarness {
	t.Helper()
	serveBin, routerBin, bundle := buildArtifacts(t)
	h := &clusterHarness{
		serveBin:   serveBin,
		routerBin:  routerBin,
		shardNames: []string{"shard0", "shard1", "shard2"},
		client:     &http.Client{Timeout: 15 * time.Second},
	}
	for i := 0; i < 4; i++ {
		args := []string{"-addr", "127.0.0.1:0", "-bundle", bundle, "-request-timeout", "5s"}
		if i < 3 {
			args = append(args, "-shard")
		}
		p := startProc(t, serveBin, "serving on ", args...)
		if i < 3 {
			h.shardProcs = append(h.shardProcs, p)
			h.shardAddrs = append(h.shardAddrs, p.addr)
		} else {
			h.refAddr = p.addr
		}
	}
	return h
}

func (h *clusterHarness) shardFlag() string {
	parts := make([]string, len(h.shardNames))
	for i, name := range h.shardNames {
		parts[i] = name + "=http://" + h.shardAddrs[i]
	}
	return strings.Join(parts, ",")
}

// startRouter spawns a fresh router process over the shared shard fleet.
// Each phase gets its own router so its counters start from zero.
func (h *clusterHarness) startRouter(t *testing.T, extra ...string) *managedProc {
	t.Helper()
	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-shards", h.shardFlag(),
		"-replication", "2",
		"-probe-interval", "0", // tests drive probe rounds explicitly
		"-request-timeout", "8s",
	}, extra...)
	return startProc(t, h.routerBin, "routing on ", args...)
}

type httpReply struct {
	status      int
	contentType string
	retryAfter  string
	body        []byte
}

func (h *clusterHarness) post(t *testing.T, addr, text string, top int, tenant string) httpReply {
	t.Helper()
	body, err := json.Marshal(serve.AnnotateRequest{Text: text, Top: top})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/v1/annotate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(serve.TenantHeader, tenant)
	}
	resp, err := h.client.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", addr, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return httpReply{
		status:      resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		retryAfter:  resp.Header.Get("Retry-After"),
		body:        data,
	}
}

// postBoth routes text through the router and directly through the
// reference engine and requires byte-identical responses.
func (h *clusterHarness) postBoth(t *testing.T, routerAddr, text string, top int) httpReply {
	t.Helper()
	got := h.post(t, routerAddr, text, top, "")
	want := h.post(t, h.refAddr, text, top, "")
	if got.status != want.status {
		t.Fatalf("%q: router status %d, single-process engine %d", text, got.status, want.status)
	}
	if got.contentType != want.contentType {
		t.Fatalf("%q: router Content-Type %q, engine %q", text, got.contentType, want.contentType)
	}
	if !bytes.Equal(got.body, want.body) {
		t.Fatalf("%q: routed response diverged from the single-process engine:\nrouter: %s\nengine: %s",
			text, got.body, want.body)
	}
	return got
}

func (h *clusterHarness) statz(t *testing.T, addr string) cluster.Statz {
	t.Helper()
	resp, err := h.client.Get("http://" + addr + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st cluster.Statz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func (h *clusterHarness) probe(t *testing.T, addr string) cluster.ProbeResult {
	t.Helper()
	resp, err := h.client.Post("http://"+addr+"/admin/probe", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr cluster.ProbeResult
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	return pr
}

// phaseDoc is deliberately rich: e-mail + URL patterns annotate even when
// the small world's mined concepts miss.
func phaseDoc(phase string, i int) string {
	return fmt.Sprintf("Doc %s-%d: contact press@example.com about the market report and the latest trade figures from https://example.com/news today.", phase, i)
}

// TestClusterDifferential is the acceptance test for the sharded serving
// tier: a real cmd/router process in front of three cmd/serve -shard
// processes must return byte-identical /v1/annotate responses to a
// single-process engine loaded from the same bundle, under every planned
// fault — injected shard downs, injected slow replicas, flapping health
// probes, a real shard kill — with failover/hedge/breaker counters in
// /statz exactly matching the replayed chaos plan, bit-identical across
// runs.
func TestClusterDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster test skipped in -short mode")
	}
	// The CI matrix pins different seeds via CHAOS_SEED; every counter
	// assertion below derives its expectation from the seed, so any value
	// must pass.
	seed := int64(42)
	if v := os.Getenv("CHAOS_SEED"); v != "" {
		parsed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", v, err)
		}
		seed = parsed
	}
	seedFlag := fmt.Sprint(seed)
	h := startCluster(t)

	// Phase 1 — healthy cluster, run twice: byte-identical responses and
	// bit-identical counters across runs.
	var healthyRuns []cluster.CountersSnapshot
	for run := 0; run < 2; run++ {
		router := h.startRouter(t, "-seed", seedFlag, "-hedge-delay", "500ms", "-hedge-jitter", "0s")
		for i := 0; i < 6; i++ {
			rep := h.postBoth(t, router.addr, phaseDoc("healthy", i), 3)
			if rep.status != http.StatusOK {
				t.Fatalf("healthy run %d request %d: status %d", run, i, rep.status)
			}
		}
		st := h.statz(t, router.addr)
		want := cluster.CountersSnapshot{Requests: 6}
		if st.Router != want {
			t.Fatalf("healthy run %d counters = %+v, want %+v", run, st.Router, want)
		}
		healthyRuns = append(healthyRuns, st.Router)
		_ = router.cmd.Process.Kill()
	}
	if healthyRuns[0] != healthyRuns[1] {
		t.Fatalf("healthy counters differ across runs: %+v vs %+v", healthyRuns[0], healthyRuns[1])
	}

	// Phase 2 — injected shard crashes (p=0.5, seed 7): the planned downs
	// fail over and every response still matches the engine. Expected
	// counters come from replaying the pure plan, and two runs agree bit
	// for bit.
	const downN = 8
	// Derive the injector seed from CHAOS_SEED, skipping the rare seeds
	// whose 8-request plan is all-down or all-healthy (those would make
	// the failover assertion vacuous).
	downSeed := seed
	var plannedDowns int64
	for {
		planInj := resilience.NewInjector(resilience.InjectorConfig{Seed: downSeed, ShardDownP: 0.5})
		plannedDowns = 0
		for i := 0; i < downN; i++ {
			if planInj.ClusterPlanAt(i).DownPrimary {
				plannedDowns++
			}
		}
		if plannedDowns > 0 && plannedDowns < downN {
			break
		}
		downSeed++
	}
	var downRuns []cluster.CountersSnapshot
	for run := 0; run < 2; run++ {
		router := h.startRouter(t, "-seed", seedFlag, "-hedge-delay", "0s",
			"-chaos-seed", fmt.Sprint(downSeed), "-chaos-down-p", "0.5")
		for i := 0; i < downN; i++ {
			h.postBoth(t, router.addr, phaseDoc("down", i), 3)
		}
		st := h.statz(t, router.addr)
		want := cluster.CountersSnapshot{
			Requests:      downN,
			Failovers:     plannedDowns,
			InjectedDowns: plannedDowns,
		}
		if st.Router != want {
			t.Fatalf("down run %d counters = %+v, want %+v", run, st.Router, want)
		}
		downRuns = append(downRuns, st.Router)
		_ = router.cmd.Process.Kill()
	}
	if downRuns[0] != downRuns[1] {
		t.Fatalf("chaos counters differ across runs: %+v vs %+v", downRuns[0], downRuns[1])
	}

	// Phase 3 — injected slow replicas (p=1): every primary stalls for 3s,
	// the hedge fires at ~100ms and wins, and the hedged response is still
	// byte-identical to the engine.
	{
		const slowN = 4
		router := h.startRouter(t, "-seed", seedFlag,
			"-hedge-delay", "100ms", "-hedge-jitter", "40ms",
			"-chaos-seed", seedFlag, "-chaos-slow-p", "1", "-chaos-slow-delay", "3s")
		start := time.Now()
		for i := 0; i < slowN; i++ {
			h.postBoth(t, router.addr, phaseDoc("slow", i), 3)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("hedges did not mask the 3s stalls: %d requests took %v", slowN, elapsed)
		}
		st := h.statz(t, router.addr)
		want := cluster.CountersSnapshot{
			Requests:      slowN,
			Hedges:        slowN,
			HedgeWins:     slowN,
			InjectedSlows: slowN,
		}
		if st.Router != want {
			t.Fatalf("slow-phase counters = %+v, want %+v", st.Router, want)
		}
		_ = router.cmd.Process.Kill()
	}

	// Phase 4 — per-tenant quota at the router front door: burst 2, third
	// request refused with 429 + Retry-After before any routing work.
	{
		router := h.startRouter(t, "-seed", seedFlag, "-quota-burst", "2")
		for i := 0; i < 2; i++ {
			if rep := h.post(t, router.addr, phaseDoc("quota", i), 3, "acme"); rep.status != http.StatusOK {
				t.Fatalf("quota request %d: status %d", i, rep.status)
			}
		}
		rep := h.post(t, router.addr, phaseDoc("quota", 2), 3, "acme")
		if rep.status != http.StatusTooManyRequests {
			t.Fatalf("over-budget tenant: status %d, want 429", rep.status)
		}
		if rep.retryAfter == "" {
			t.Fatal("429 without Retry-After")
		}
		if rep := h.post(t, router.addr, phaseDoc("quota", 3), 3, "other"); rep.status != http.StatusOK {
			t.Fatalf("second tenant refused: status %d", rep.status)
		}
		st := h.statz(t, router.addr)
		if st.Router.Requests != 3 { // the 429 never became a routed request
			t.Fatalf("requests = %d, want 3", st.Router.Requests)
		}
		if st.Resilience.QuotaDenied != 1 {
			t.Fatalf("quota_denied = %d, want 1", st.Resilience.QuotaDenied)
		}
		if st.QuotaTenants != 2 {
			t.Fatalf("quota_tenants = %d, want 2", st.QuotaTenants)
		}
		_ = router.cmd.Process.Kill()
	}

	// Phase 5 — flapping health checks (p=1): one explicit probe round
	// marks every shard unhealthy, so the next request exhausts its
	// replica set — exactly 3 injected flaps, 2 health skips, one 503.
	{
		router := h.startRouter(t, "-seed", seedFlag, "-chaos-seed", seedFlag, "-chaos-flap-p", "1")
		pr := h.probe(t, router.addr)
		for i, healthy := range pr.Healthy {
			if healthy {
				t.Fatalf("flap round left shard %d healthy", i)
			}
		}
		rep := h.post(t, router.addr, phaseDoc("flap", 0), 3, "")
		if rep.status != http.StatusServiceUnavailable {
			t.Fatalf("all-flapped cluster: status %d, want 503", rep.status)
		}
		if rep.retryAfter == "" {
			t.Fatal("503 without Retry-After")
		}
		st := h.statz(t, router.addr)
		want := cluster.CountersSnapshot{
			Requests:          1,
			HealthSkips:       2,
			ReplicasExhausted: 1,
			InjectedFlaps:     3,
		}
		if st.Router != want {
			t.Fatalf("flap-phase counters = %+v, want %+v", st.Router, want)
		}
		_ = router.cmd.Process.Kill()
	}

	// Phase 6 (destructive, last) — a real shard crash: kill shard2 with
	// SIGKILL and walk the breaker state machine against its seeded
	// cooldown schedule, replayed from BreakerCooldownAt. Every routed
	// request still matches the single-process engine via failover.
	{
		deadShard := 2
		_ = h.shardProcs[deadShard].cmd.Process.Kill()
		_, _ = h.shardProcs[deadShard].cmd.Process.Wait()

		router := h.startRouter(t, "-seed", seedFlag, "-hedge-delay", "0s",
			"-breaker-threshold", "2", "-breaker-min-skip", "2", "-breaker-max-skip", "4")
		bcfg := resilience.BreakerConfig{Threshold: 2, MinSkip: 2, MaxSkip: 4, Seed: seed, Stream: deadShard}
		cool0 := resilience.BreakerCooldownAt(bcfg, 0)

		// Texts whose ring primary is the dead shard, replayed from the
		// same ring + cache key the router uses.
		ring := cluster.NewRing(h.shardNames, 0)
		var texts []string
		for i := 0; len(texts) < 2+cool0+1; i++ {
			text := phaseDoc("crash", i)
			if ring.Replicas(wire.Key(text, 3), 1)[0] == deadShard {
				texts = append(texts, text)
			}
		}

		for i, text := range texts {
			rep := h.postBoth(t, router.addr, text, 3)
			if rep.status != http.StatusOK {
				t.Fatalf("crash-phase request %d: status %d", i, rep.status)
			}
		}
		st := h.statz(t, router.addr)
		want := cluster.CountersSnapshot{
			Requests:      int64(len(texts)),
			Failovers:     3, // 2 trip attempts + 1 failed half-open probe
			BreakerSkips:  int64(cool0),
			BreakerProbes: 1,
		}
		if st.Router != want {
			t.Fatalf("crash-phase counters = %+v, want %+v", st.Router, want)
		}
		var dead *cluster.StatzShard
		for i := range st.Shards {
			if st.Shards[i].Name == h.shardNames[deadShard] {
				dead = &st.Shards[i]
			}
		}
		if dead == nil {
			t.Fatal("dead shard missing from /statz")
		}
		if dead.BreakerState != "open" || dead.BreakerOpens != 2 {
			t.Fatalf("dead shard breaker %s opens=%d, want open opens=2", dead.BreakerState, dead.BreakerOpens)
		}
		_ = router.cmd.Process.Kill()
	}
}
