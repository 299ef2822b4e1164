package main

import (
	"bytes"
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
			"pstore serve: -replica-of, -ship-faults, -sync-commit and -follower-checkpoint-every require node mode (-node)"},
		{"peer count mismatch", []string{"serve", "-node", "0", "-nodes", "2", "-listen", "127.0.0.1:0", "-peers", "http://127.0.0.1:1"}, 1, false,
			"pstore serve: -peers lists 1 URLs, want 2 (one per node, in node-id order)"},
		{"node out of range", []string{"serve", "-node", "2", "-nodes", "2", "-listen", "127.0.0.1:0"}, 1, false,
			"pstore serve: -node 2 out of range for -nodes 2"},
		{"node without listen", []string{"serve", "-node", "0", "-nodes", "1"}, 1, false,
			"pstore serve: -node requires -listen"},
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
