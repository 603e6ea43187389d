package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"discopop/internal/server"
)

// TestParse pins dp-serve's flag handling: which command lines are usage
// errors (exit 2 before a listener or a journal is opened) and that an
// accepted one lands in the server.Config it asks for — -cache-size 0 is
// "unbounded", which Config spells as a negative cap; -peers splits on
// commas; negative -journal-max-* pass through as "never compact".
func TestParse(t *testing.T) {
	tokenFile := filepath.Join(t.TempDir(), "tokens")
	if err := os.WriteFile(tokenFile, []byte("# staff\ns3cret alice\n\nt0ken bob\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	defaults := server.Config{CacheEntries: 1024, QueueDepth: 64, Threads: 16}
	with := func(edit func(*server.Config)) server.Config {
		c := defaults
		edit(&c)
		return c
	}
	for _, tc := range []struct {
		args    string
		wantErr string // substring; "" = accepted
		want    server.Config
	}{
		{"", "", defaults},
		{"-cache-size 0", "", with(func(c *server.Config) { c.CacheEntries = -1 })},
		{"-cache-size 7 -jobs 3 -queue 5 -threads 8", "",
			server.Config{CacheEntries: 7, Workers: 3, QueueDepth: 5, Threads: 8}},
		{"-peers http://a:1,http://b:2 -peer-token pt", "", with(func(c *server.Config) {
			c.Peers = []string{"http://a:1", "http://b:2"}
			c.Remote.Token = "pt"
		})},
		{"-tokens s3cret=alice,t0ken=bob", "", with(func(c *server.Config) {
			c.Tokens = map[string]string{"s3cret": "alice", "t0ken": "bob"}
		})},
		{"-tokens old=carol,t0ken=carol -token-file " + tokenFile, "", with(func(c *server.Config) {
			c.Tokens = map[string]string{"old": "carol", "s3cret": "alice", "t0ken": "bob"}
		})},
		{"-journal j.log -journal-max-bytes -1 -journal-max-records -1", "", with(func(c *server.Config) {
			c.JournalPath, c.JournalMaxBytes, c.JournalMaxRecords = "j.log", -1, -1
		})},
		{"-rate 10 -burst 3 -max-inflight 8 -quota-instrs 5e6 -max-module-kb 4", "", with(func(c *server.Config) {
			c.Quotas = server.Quotas{SubmitRate: 10, SubmitBurst: 3, MaxInflight: 8, InstrRate: 5e6, MaxModuleBytes: 4096}
		})},
		{"-tokens s3cret", `bad -tokens entry "s3cret"`, server.Config{}},
		{"-tokens =alice", "bad -tokens entry", server.Config{}},
		{"-token-file " + tokenFile + ".missing", "-token-file", server.Config{}},
		{"-cache-size many", "invalid value", server.Config{}},
		{"-drain-timeout soon", "invalid value", server.Config{}},
		{"-peers", "flag needs an argument", server.Config{}},
		{"-no-such-flag", "flag provided but not defined", server.Config{}},
	} {
		c, err := parse(strings.Fields(tc.args))
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%q: rejected: %v", tc.args, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%q: error %v, want one containing %q", tc.args, err, tc.wantErr)
		case tc.wantErr == "" && !reflect.DeepEqual(c.srv, tc.want):
			t.Errorf("%q: config %+v, want %+v", tc.args, c.srv, tc.want)
		}
	}
	c, err := parse(strings.Fields("-addr 127.0.0.1:0 -debug-addr 127.0.0.1:6060 -drain-timeout 5s"))
	if err != nil || c.addr != "127.0.0.1:0" || c.debugAddr != "127.0.0.1:6060" || c.drainFor != 5*time.Second {
		t.Errorf("parsed %+v, %v", c, err)
	}
	if c, err := parse(nil); err != nil || c.addr != ":8080" || c.drainFor != time.Minute {
		t.Errorf("defaults: %+v, %v", c, err)
	}
}
