// Command uismoke is the dashboard smoke gate (`make ui-smoke`): it boots
// a real vpir-server binary on an ephemeral port, fetches the embedded UI
// assets, drives POST /v1/trace for a golden configuration twice —
// validating the payload shape and that the repeat is a byte-identical
// cache hit — and then shuts the server down cleanly. It exercises the
// binary end to end (embedding, routing, middleware, drain), which unit
// tests against the handler cannot.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"github.com/vpir-sim/vpir/internal/server"
	"github.com/vpir-sim/vpir/internal/technique"
)

func main() {
	bin := flag.String("bin", "", "path to the vpir-server binary under test")
	flag.Parse()
	if *bin == "" {
		fmt.Fprintln(os.Stderr, "uismoke: -bin is required")
		os.Exit(2)
	}
	if err := run(*bin); err != nil {
		fmt.Fprintln(os.Stderr, "uismoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("uismoke: ok")
}

func run(bin string) error {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-access-log=false")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	defer cmd.Process.Kill()

	// The server announces its bound address on stderr; -addr :0 makes the
	// smoke test port-collision-proof.
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, after, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addrc <- strings.TrimSpace(after):
				default:
				}
			}
		}
	}()
	var base string
	select {
	case addr := <-addrc:
		base = "http://" + addr
	case <-time.After(10 * time.Second):
		return fmt.Errorf("server did not announce a listen address within 10s")
	}

	if err := checkUI(base); err != nil {
		return err
	}
	if err := checkTrace(base); err != nil {
		return err
	}

	// Clean shutdown: SIGTERM must drain and exit 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("server exited uncleanly after SIGTERM: %w", err)
		}
	case <-time.After(15 * time.Second):
		return fmt.Errorf("server did not exit within 15s of SIGTERM")
	}
	return nil
}

// checkUI verifies the dashboard is genuinely embedded: every asset served
// from the bare binary, no external fetches.
func checkUI(base string) error {
	body, _, err := get(base + "/v1/ui/")
	if err != nil {
		return err
	}
	if !strings.Contains(strings.ToLower(string(body)), "<!doctype html") {
		return fmt.Errorf("/v1/ui/ is not the dashboard index")
	}
	for asset, marker := range map[string]string{
		"app.js":    "/v1/trace", // the dashboard drives the trace API
		"style.css": "--stage-f", // the stage palette
	} {
		body, _, err := get(base + "/v1/ui/" + asset)
		if err != nil {
			return err
		}
		if !strings.Contains(string(body), marker) {
			return fmt.Errorf("/v1/ui/%s served but missing %q", asset, marker)
		}
	}
	return nil
}

// checkTrace drives the golden trace config twice: the first response must
// have a well-formed payload, the second must be a byte-identical cache
// hit.
func checkTrace(base string) error {
	req := server.TraceRequest{
		Bench:    "vortex",
		MaxInsts: 20_000,
		Options:  server.SimOptions{Technique: "hybrid", Knobs: technique.Knobs{Scheme: "stride"}},
		Window:   64,
	}
	reqBody, err := json.Marshal(req)
	if err != nil {
		return err
	}
	first, firstCache, err := post(base+"/v1/trace", reqBody)
	if err != nil {
		return err
	}
	if firstCache != "MISS" {
		return fmt.Errorf("first trace X-Cache = %q, want MISS", firstCache)
	}
	if err := validateTrace(first); err != nil {
		return fmt.Errorf("trace payload: %w", err)
	}
	second, secondCache, err := post(base+"/v1/trace", reqBody)
	if err != nil {
		return err
	}
	if secondCache != "HIT" {
		return fmt.Errorf("second trace X-Cache = %q, want HIT", secondCache)
	}
	if !bytes.Equal(first, second) {
		return fmt.Errorf("repeated trace is not byte-identical")
	}
	return nil
}

// validateTrace checks the payload shape the dashboard depends on.
func validateTrace(body []byte) error {
	var tr server.TraceResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		return err
	}
	if tr.Stats.Cycles == 0 || tr.Stats.Committed == 0 || tr.Stats.IPC <= 0 {
		return fmt.Errorf("implausible stats: %+v", tr.Stats)
	}
	if len(tr.Window.Insts) == 0 {
		return fmt.Errorf("window.insts is empty")
	}
	for i, ev := range tr.Window.Insts {
		if ev.Seq == 0 && i > 0 {
			return fmt.Errorf("inst %d has no seq", i)
		}
		if !strings.HasPrefix(ev.PC, "0x") || ev.Disasm == "" {
			return fmt.Errorf("inst %d: pc %q disasm %q", i, ev.PC, ev.Disasm)
		}
	}
	if tr.Events.Events == nil {
		return fmt.Errorf("events.events is null")
	}
	if len(tr.Events.Counts) == 0 {
		return fmt.Errorf("events.counts is empty for a hybrid run")
	}
	if len(tr.Series.Fields) == 0 || tr.Series.Fields[0] != "cycle" {
		return fmt.Errorf("series.fields = %v, want leading cycle", tr.Series.Fields)
	}
	if len(tr.Series.Rows) == 0 {
		return fmt.Errorf("series.rows is empty")
	}
	for i, row := range tr.Series.Rows {
		if len(row) != len(tr.Series.Fields) {
			return fmt.Errorf("series row %d width %d != %d fields", i, len(row), len(tr.Series.Fields))
		}
	}
	return nil
}

func get(url string) ([]byte, string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("GET %s = %d", url, resp.StatusCode)
	}
	return body, resp.Header.Get("X-Cache"), nil
}

func post(url string, body []byte) ([]byte, string, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("POST %s = %d: %s", url, resp.StatusCode, out)
	}
	return out, resp.Header.Get("X-Cache"), nil
}
