package main

import (
	"bytes"
	"context"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain lets the signal test re-run this binary as the benchmark.
func TestMain(m *testing.M) {
	if os.Getenv("PERFBENCH_AS_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// tinyOptions runs a workload on its smallest inputs for a short window.
func tinyOptions(t *testing.T, workload string, traced bool) (options, *[]string) {
	var addrs []string
	return options{
		workload: workload,
		seed:     7,
		seconds:  300 * time.Millisecond,
		trace:    traced,
		traceDir: t.TempDir(),
		tiny:     true,
		onFleet:  func(a []string) { addrs = append(addrs, a...) },
	}, &addrs
}

// assertClean waits for the goroutine count to return to its baseline and
// checks that nothing listens on any address the fleet used.
func assertClean(t *testing.T, baseline int, addrs []string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines left, baseline %d:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, a := range addrs {
		if c, err := net.DialTimeout("tcp", a, time.Second); err == nil {
			c.Close()
			t.Errorf("%s still accepts connections", a)
		}
	}
}

func TestWorkloadsAnswerCorrectlyAndTearDown(t *testing.T) {
	for _, w := range []string{"grid-exact", "policy-matrix", "fleet-mix"} {
		for _, traced := range []bool{false, true} {
			name := w
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				baseline := runtime.NumGoroutine()
				opt, addrs := tinyOptions(t, w, traced)
				rep, err := run(context.Background(), opt)
				if err != nil {
					t.Fatal(err)
				}
				if rep.failed != 0 || rep.attempted == 0 {
					t.Fatalf("%d of %d operations failed", rep.failed, rep.attempted)
				}
				var out bytes.Buffer
				if err := writeReport(&out, rep); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				if last := lines[len(lines)-1]; !strings.HasPrefix(last, `{"correct":true,`) {
					t.Fatalf("last line is not the result: %s", last)
				}
				if w == "fleet-mix" && len(*addrs) != 4*fleetSetupReps {
					t.Fatalf("fleet listened on %d addresses, want %d", len(*addrs), 4*fleetSetupReps)
				}
				assertClean(t, baseline, *addrs)
			})
		}
	}
}

func TestCorruptedReferenceIsCaught(t *testing.T) {
	for _, w := range []string{"grid-exact", "fleet-mix"} {
		t.Run(w, func(t *testing.T) {
			opt, _ := tinyOptions(t, w, false)
			opt.corruptReference = true
			rep, err := run(context.Background(), opt)
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed == 0 {
				t.Fatalf("a corrupted reference passed all %d checks", rep.attempted)
			}
		})
	}
}

// TestInterruptedRunTearsDown cancels, times out or panics a fleet-mix run
// part-way and checks that it returns an error with nothing left behind.
func TestInterruptedRunTearsDown(t *testing.T) {
	cases := map[string]func(opt *options) context.Context{
		"cancel": func(opt *options) context.Context {
			ctx, cancel := context.WithCancel(context.Background())
			t.Cleanup(cancel)
			time.AfterFunc(500*time.Millisecond, cancel)
			return ctx
		},
		"timeout": func(opt *options) context.Context {
			ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
			t.Cleanup(cancel)
			return ctx
		},
		"panic": func(opt *options) context.Context {
			record := opt.onFleet
			opt.onFleet = func(a []string) {
				record(a)
				panic("injected")
			}
			return context.Background()
		},
	}
	for name, setup := range cases {
		t.Run(name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			opt, addrs := tinyOptions(t, "fleet-mix", false)
			opt.seconds = 30 * time.Second
			ctx := setup(&opt)
			start := time.Now()
			if _, err := run(ctx, opt); err == nil {
				t.Fatal("interrupted run reported success")
			}
			if d := time.Since(start); d > 15*time.Second {
				t.Fatalf("interrupted run took %v to return", d)
			}
			if len(*addrs) == 0 {
				t.Fatal("the fleet never started")
			}
			assertClean(t, baseline, *addrs)
		})
	}
}

// TestSignalStopsTheProcess sends SIGINT and SIGTERM to a running
// benchmark process and expects a prompt non-zero exit with no result.
func TestSignalStopsTheProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full-size fleet-mix set-up")
	}
	for _, sig := range []syscall.Signal{syscall.SIGINT, syscall.SIGTERM} {
		t.Run(sig.String(), func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "--workload", "fleet-mix", "--seed", "3", "--seconds", "30")
			cmd.Env = append(os.Environ(), "PERFBENCH_AS_MAIN=1")
			var stdout bytes.Buffer
			cmd.Stdout = &stdout
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			time.Sleep(3 * time.Second)
			if err := cmd.Process.Signal(sig); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- cmd.Wait() }()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("interrupted benchmark exited 0")
				}
			case <-time.After(20 * time.Second):
				cmd.Process.Kill()
				<-done
				t.Fatal("benchmark did not exit within 20s of the signal")
			}
			if strings.Contains(stdout.String(), `"correct"`) {
				t.Fatalf("interrupted benchmark printed a result:\n%s", stdout.String())
			}
		})
	}
}
