package proctest_test

import (
	"errors"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/aigrepro/aig/internal/proctest"
)

// childArg, as the first argument, makes the test binary act as a fake
// child instead of running tests (see fakeChild).
const childArg = "proctest-child"

func TestMain(m *testing.M) {
	if len(os.Args) > 2 && os.Args[1] == childArg {
		os.Exit(fakeChild(os.Args[2], os.Args[3:]))
	}
	os.Exit(m.Run())
}

// fakeChild is the re-executed test binary. "fail" writes to stderr and
// exits 3 before ever listening; "serve ADDR CODE" answers /healthz on
// ADDR and exits CODE on SIGTERM.
func fakeChild(mode string, args []string) int {
	switch mode {
	case "fail":
		os.Stderr.WriteString("fake child: refusing to start\n")
		return 3
	case "serve":
		code, _ := strconv.Atoi(args[1])
		term := make(chan os.Signal, 1)
		signal.Notify(term, syscall.SIGTERM)
		http.HandleFunc("/healthz", func(http.ResponseWriter, *http.Request) {})
		go http.ListenAndServe(args[0], nil)
		<-term
		return code
	}
	return 2
}

// serveFake starts a fake child that exits with code on SIGTERM.
func serveFake(t *testing.T, code string) (*proctest.Proc, error) {
	addr := proctest.FreeAddr(t)
	return proctest.Start(t, proctest.HTTPReady("http://"+addr), os.Args[0], childArg, "serve", addr, code)
}

func TestStartFailsFastWithStderr(t *testing.T) {
	start := time.Now()
	_, err := proctest.Start(t, proctest.HTTPReady("http://"+proctest.FreeAddr(t)), os.Args[0], childArg, "fail")
	if err == nil {
		t.Fatal("Start succeeded for a child that exited")
	}
	if !strings.Contains(err.Error(), "refusing to start") {
		t.Fatalf("Start's error lacks the child's stderr: %v", err)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("Start took %v to notice the exit", el)
	}
}

func TestStopReportsExitStatus(t *testing.T) {
	for _, tc := range []struct {
		code    string
		wantErr bool
	}{{"0", false}, {"3", true}} {
		p, err := serveFake(t, tc.code)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Stop(); (err != nil) != tc.wantErr {
			t.Fatalf("exit %s: Stop() = %v, want error %v", tc.code, err, tc.wantErr)
		}
	}
}

func TestKillLeavesNoProcess(t *testing.T) {
	p, err := serveFake(t, "0")
	if err != nil {
		t.Fatal(err)
	}
	p.Kill()
	if err := syscall.Kill(p.Pid(), 0); !errors.Is(err, syscall.ESRCH) {
		t.Fatalf("process %d after Kill: signal 0 = %v, want ESRCH", p.Pid(), err)
	}
}
