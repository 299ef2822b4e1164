package main

import (
	"bytes"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestCommandsMatchUsage: the dispatch table and the usage text name the same
// subcommands, so one cannot gain or lose a command without the other.
func TestCommandsMatchUsage(t *testing.T) {
	inUsage := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^  pstore (\S+)`).FindAllStringSubmatch(usageText, -1) {
		inUsage[m[1]] = true
	}
	for name := range commands {
		if !inUsage[name] {
			t.Errorf("commands dispatches %q, the usage text does not name it", name)
		}
	}
	for name := range inUsage {
		if commands[name] == nil {
			t.Errorf("the usage text names %q, commands does not dispatch it", name)
		}
	}
}

func TestDispatchExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name      string
		args      []string
		code      int
		wantUsage bool
		wantLine  string
	}{
		{"no command", nil, 2, true, ""},
		{"unknown command", []string{"frobnicate"}, 2, true, `pstore: unknown command "frobnicate"`},
		{"removed bench command", []string{"bench", "-duration", "1s"}, 2, true, `pstore: unknown command "bench"`},
		{"help", []string{"help"}, 0, true, ""},
		{"subcommand failure", []string{"plan"}, 1, false, "pstore plan: -input is required"},
		{"replica without node mode", []string{"serve", "-replica-of", "http://127.0.0.1:1"}, 1, false,
			"pstore serve: -replica-of and -sync-commit require node mode (-node)"},
		{"serve refuses the removed checkpoint cadence", []string{"serve", "-checkpoint-every", "5"}, 1, false,
			"pstore serve: flag provided but not defined: -checkpoint-every"},
		{"serve refuses the removed follower checkpoint counter", []string{"serve", "-follower-checkpoint-every", "5"}, 1, false,
			"pstore serve: flag provided but not defined: -follower-checkpoint-every"},
		{"plan refuses a NaN Q", []string{"plan", "-input", "load.csv", "-q", "NaN"}, 1, false,
			"pstore plan: -q NaN, -qmax 350, -d 15.4, -p 6: migration: Q NaN must be positive and finite"},
		{"plan refuses a NaN Q-hat", []string{"plan", "-input", "load.csv", "-qmax", "NaN"}, 1, false,
			"pstore plan: -q 285, -qmax NaN, -d 15.4, -p 6: migration: QMax NaN must be finite and at least Q 285"},
		{"plan refuses a NaN D", []string{"plan", "-input", "load.csv", "-d", "NaN"}, 1, false,
			"pstore plan: -q 285, -qmax 350, -d NaN, -p 6: migration: D NaN must be finite and non-negative"},
		{"peer count mismatch", []string{"serve", "-node", "0", "-nodes", "2", "-listen", "127.0.0.1:0", "-peers", "http://127.0.0.1:1"}, 1, false,
			"pstore serve: -peers lists 1 URLs, want 2 (one per node, in node-id order)"},
		{"node out of range", []string{"serve", "-node", "2", "-nodes", "2", "-listen", "127.0.0.1:0"}, 1, false,
			"pstore serve: -node 2 out of range for -nodes 2"},
		{"node without listen", []string{"serve", "-node", "0", "-nodes", "1"}, 1, false,
			"pstore serve: -node requires -listen"},
		{"malformed faults", []string{"coord", "-migrate", "2", "-faults", "seed=42,chunk-drop=NaN"}, 1, false,
			"pstore coord: faults: chunk-drop=NaN: probability outside [0, 1]"},
		{"coord refuses ship faults", []string{"coord", "-migrate", "2", "-faults", "seed=1,ship-drop=0.1"}, 1, false,
			"pstore coord: faults: ship-drop=0.1 is a ship fault"},
		{"coord refuses link faults without peers", []string{"coord", "-migrate", "2", "-faults", "seed=1,link-dup=0.25"}, 1, false,
			"pstore coord: faults: link-dup=0.25 is a link fault"},
		{"coord refuses a NaN rate", []string{"coord", "-migrate", "2", "-rate", "NaN"}, 1, false,
			"pstore coord: -rate NaN: want a finite factor above 0"},
		{"coord refuses a zero rate", []string{"coord", "-migrate", "2", "-rate", "0"}, 1, false,
			"pstore coord: -rate 0: want a finite factor above 0"},
		{"coord refuses a target above -max", []string{"coord", "-max", "4", "-machines", "1", "-migrate", "9,2"}, 1, false,
			"pstore coord: -migrate step 1: target 9 outside [1, -max 4]"},
		{"coord crash past the last step", []string{"coord", "-migrate", "4,1", "-faults", "crash=1@3"}, 1, false,
			"pstore coord: -faults crash=1@3: want a machine below -max 8 and one of the 2 migrate steps"},
		{"coord -failover refuses -migrate", []string{"coord", "-peers", "http://127.0.0.1:1", "-failover", "0", "-promote", "http://127.0.0.1:1", "-migrate", "2"}, 1, false,
			"pstore coord: -failover does not take -migrate"},
		{"coord -failover refuses script flags", []string{"coord", "-peers", "http://127.0.0.1:1", "-failover", "0", "-promote", "http://127.0.0.1:1",
			"-faults", "seed=1", "-rate", "8", "-shutdown-nodes"}, 1, false,
			"pstore coord: -failover does not take -faults, -rate, -shutdown-nodes"},
		{"coord -failover refuses oracle flags", []string{"coord", "-peers", "http://127.0.0.1:1", "-failover", "0", "-promote", "http://127.0.0.1:1",
			"-max", "4", "-machines", "2", "-seed", "3"}, 1, false,
			"pstore coord: -failover does not take -machines, -max, -seed"},
		{"coord -migrate refuses failover flags", []string{"coord", "-migrate", "2", "-probe", "1s", "-fail-after", "2",
			"-promote", "http://127.0.0.1:9", "-restart-cmd", "true", "-failover-wait", "1s"}, 1, false,
			"pstore coord: -migrate does not take -fail-after, -failover-wait, -probe, -promote, -restart-cmd"},
		{"coord -failover refuses a zero probe", []string{"coord", "-peers", "http://127.0.0.1:1", "-failover", "0", "-promote", "http://127.0.0.1:1", "-probe", "0"}, 1, false,
			"pstore coord: -probe 0s: want a positive period"},
		{"coord -failover refuses a negative fail-after", []string{"coord", "-peers", "http://127.0.0.1:1", "-failover", "0", "-promote", "http://127.0.0.1:1", "-fail-after", "-1"}, 1, false,
			"pstore coord: -fail-after -1: want at least 1"},
		{"serve refuses link faults", []string{"serve", "-faults", "link-drop=0.1"}, 1, false,
			"pstore serve: cluster: faults: link-drop=0.1 is a link fault; a cluster injects chunk and crash faults"},
		{"serve refuses ship faults", []string{"serve", "-faults", "ship-dup=0.1"}, 1, false,
			"pstore serve: cluster: faults: ship-dup=0.1 is a ship fault"},
		{"serve -node refuses chunk faults", []string{"serve", "-node", "0", "-nodes", "1", "-listen", "127.0.0.1:0", "-faults", "chunk-drop=0.1"}, 1, false,
			"pstore serve: faults: chunk-drop=0.1 is a chunk fault: serve -node injects ship faults only"},
		{"serve -node refuses crash faults", []string{"serve", "-node", "0", "-nodes", "1", "-listen", "127.0.0.1:0", "-faults", "crash=1@2"}, 1, false,
			"pstore serve: faults: crash=1@2 is a crash fault"},
		{"serve refuses the removed track key", []string{"serve", "-days", "1", "-minute", "1ms", "-overload", "track=true"}, 1, false,
			"pstore serve: flag provided but not defined: -overload"},
		{"serve -node refuses link faults", []string{"serve", "-node", "0", "-nodes", "1", "-listen", "127.0.0.1:0", "-faults", "link-down=0:1"}, 1, false,
			"pstore serve: faults: link-down=0:1 is a link fault"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			if code := dispatch(tc.args, &stderr); code != tc.code {
				t.Errorf("exit code %d, want %d", code, tc.code)
			}
			if got := strings.Contains(stderr.String(), usageText); got != tc.wantUsage {
				t.Errorf("usage text printed = %v, want %v; stderr:\n%s", got, tc.wantUsage, &stderr)
			}
			if !strings.Contains(stderr.String(), tc.wantLine) {
				t.Errorf("stderr lacks %q:\n%s", tc.wantLine, &stderr)
			}
		})
	}
}

// TestCoordOracleFingerprint pins the parity fingerprint the CI multiproc
// legs compare a networked run against: the single-process oracle under
// chunk drops and a crash of machine 1 before step 2 must print this value,
// with the fault plane offering 57 chunk sends and dropping 9.
func TestCoordOracleFingerprint(t *testing.T) {
	out := captureStdout(t, func() {
		var stderr bytes.Buffer
		if code := dispatch([]string{"coord", "-max", "4", "-machines", "1", "-migrate", "4,1",
			"-faults", "seed=42,chunk-drop=0.15,crash=1@2"}, &stderr); code != 0 {
			t.Errorf("exit code %d; stderr:\n%s", code, &stderr)
		}
	})
	for _, want := range []string{
		"coord: step 2: crash machine 1 (down: [1])\n",
		"coord: faults: 57 offered, 9 dropped, 0 crashed, 0 slowed, 0 stalled\n",
		"coord: fingerprint db0d9f6c200b9b08 rows 4200 machines 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout lacks %q:\n%s", want, out)
		}
	}
}

// captureStdout returns what fn writes to os.Stdout.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	defer func() { os.Stdout = saved }()
	fn()
	w.Close()
	return <-done
}
