package auth

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/qos"
)

var t0 = time.Date(1996, 8, 6, 9, 0, 0, 0, time.UTC)

func form(name string) User {
	return User{
		Name: name, Password: "pw", RealName: "Real " + name,
		Address: "Rio, Patras", Email: name + "@example.gr", Phone: "061-123456",
		Class: qos.Standard,
	}
}

func TestSubscribeAndAuthenticate(t *testing.T) {
	db := NewDB()
	if err := db.Subscribe(form("alice"), t0); err != nil {
		t.Fatal(err)
	}
	if _, bob := db.users["bob"]; db.users["alice"] == nil || bob {
		t.Fatal("subscribed users wrong")
	}
	u, err := db.Authenticate("alice", "pw", t0.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if u.Class != qos.Standard || u.SubscribedAt != t0 {
		t.Fatalf("user = %+v", u)
	}
	if len(db.users) != 1 {
		t.Fatalf("users = %d", len(db.users))
	}
}

func TestSubscribeValidation(t *testing.T) {
	db := NewDB()
	bad := form("x")
	bad.Email = ""
	if err := db.Subscribe(bad, t0); !errors.Is(err, ErrorIncomplete) {
		t.Fatalf("err = %v", err)
	}
	db.Subscribe(form("x"), t0)
	if err := db.Subscribe(form("x"), t0); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("dup err = %v", err)
	}
}

func TestAuthenticateFailures(t *testing.T) {
	db := NewDB()
	db.Subscribe(form("alice"), t0)
	if _, err := db.Authenticate("bob", "pw", t0); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("err = %v", err)
	}
	if _, err := db.Authenticate("alice", "wrong", t0); !errors.Is(err, ErrBadPassword) {
		t.Fatalf("err = %v", err)
	}
	// Both failures logged as denied.
	denied := 0
	for _, e := range db.AccessLog("") {
		if e.Kind == AccessDenied {
			denied++
		}
	}
	if denied != 2 {
		t.Fatalf("denied = %d", denied)
	}
}

func TestAccessLogCapture(t *testing.T) {
	db := NewDB()
	db.Subscribe(form("alice"), t0)
	db.Authenticate("alice", "pw", t0)
	db.LogRetrieval("alice", "lesson-1", t0.Add(time.Minute))
	db.LogRetrieval("alice", "lesson-2", t0.Add(2*time.Minute))
	db.LogLogout("alice", t0.Add(3*time.Minute))
	log := db.AccessLog("alice")
	if len(log) != 4 {
		t.Fatalf("log = %d entries", len(log))
	}
	kinds := []AccessKind{AccessLogin, AccessRetrieve, AccessRetrieve, AccessLogout}
	for i, k := range kinds {
		if log[i].Kind != k {
			t.Fatalf("entry %d = %v, want %v", i, log[i].Kind, k)
		}
	}
	if log[1].Detail != "lesson-1" {
		t.Fatalf("detail = %q", log[1].Detail)
	}
	if len(db.AccessLog("nobody")) != 0 {
		t.Fatal("phantom log")
	}
}

func TestPricingByClassAndDuration(t *testing.T) {
	db := NewDB()
	eco, prem := form("eco"), form("prem")
	eco.Class, prem.Class = qos.Economy, qos.Premium
	db.Subscribe(eco, t0)
	db.Subscribe(prem, t0)
	ae, err := db.ChargeSession("eco", 100*time.Second, t0)
	if err != nil {
		t.Fatal(err)
	}
	ap, _ := db.ChargeSession("prem", 100*time.Second, t0)
	if ae != 100 || ap != 500 {
		t.Fatalf("charges = %v / %v", ae, ap)
	}
	db.ChargeSession("prem", 10*time.Second, t0)
	if db.Balance("prem") != 550 {
		t.Fatalf("balance = %v", db.Balance("prem"))
	}
	if _, err := db.ChargeSession("ghost", time.Second, t0); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("ghost charge err = %v", err)
	}
	if db.Balance("ghost") != 0 {
		t.Fatal("ghost balance")
	}
}

func TestAccessKindStrings(t *testing.T) {
	for k := AccessLogin; k <= AccessDenied; k++ {
		if k.String() == "unknown" {
			t.Fatalf("kind %d unnamed", k)
		}
	}
	if AccessKind(99).String() != "unknown" {
		t.Fatal("out of range")
	}
}

// TestLogsAcrossChunks: the access log and the charges read back in the
// order written, and sum as a plain running total would, when they span
// several chunks with a partial one at the end.
func TestLogsAcrossChunks(t *testing.T) {
	db := NewDB()
	users := []string{"ann", "ben", "cat"}
	for _, u := range users {
		db.Subscribe(form(u), t0)
	}
	const n = 2*chunkLen + chunkLen/2 + 1
	var want []AccessEntry
	balance := map[string]float64{}
	for i := 0; i < n; i++ {
		u, at := users[i%len(users)], t0.Add(time.Duration(i)*time.Second)
		if i%2 == 0 {
			db.LogRetrieval(u, fmt.Sprintf("lesson-%d", i), at)
			want = append(want, AccessEntry{At: at, User: u, Kind: AccessRetrieve, Detail: fmt.Sprintf("lesson-%d", i)})
		} else {
			db.LogLogout(u, at)
			want = append(want, AccessEntry{At: at, User: u, Kind: AccessLogout})
		}
		amount, err := db.ChargeSession(u, time.Duration(i)*time.Millisecond, at)
		if err != nil {
			t.Fatal(err)
		}
		balance[u] += amount
	}
	if len(db.log) != 3 || len(db.charges) != 3 {
		t.Fatalf("%d entries in %d log and %d charge chunks, want 3 each", n, len(db.log), len(db.charges))
	}
	all := db.AccessLog("")
	if len(all) != n {
		t.Fatalf("access log holds %d entries, want %d", len(all), n)
	}
	for i := range want {
		if all[i] != want[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, all[i], want[i])
		}
	}
	for _, u := range users {
		var mine []AccessEntry
		for _, e := range want {
			if e.User == u {
				mine = append(mine, e)
			}
		}
		got := db.AccessLog(u)
		if len(got) != len(mine) {
			t.Fatalf("%s: %d entries, want %d", u, len(got), len(mine))
		}
		for i := range mine {
			if got[i] != mine[i] {
				t.Fatalf("%s entry %d = %+v, want %+v", u, i, got[i], mine[i])
			}
		}
		if got := db.Balance(u); got != balance[u] {
			t.Fatalf("%s: balance %v, want %v", u, got, balance[u])
		}
	}
}

// TestConcurrentLogs: one DB serves every server of a cluster, so logins,
// logouts and log reads race. Run under -race, every entry lands once, in
// its writer's order, and the log a reader sees never shrinks.
func TestConcurrentLogs(t *testing.T) {
	db := NewDB()
	const writers, perWriter = 4, chunkLen
	for w := 0; w < writers; w++ {
		db.Subscribe(form(fmt.Sprintf("u%d", w)), t0)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(2)
		user := fmt.Sprintf("u%d", w)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := db.Authenticate(user, "pw", t0); err != nil {
					t.Error(err)
					return
				}
				db.LogLogout(user, t0)
			}
		}()
		go func() {
			defer wg.Done()
			seen := 0
			for i := 0; i < perWriter/8; i++ {
				log := db.AccessLog(user)
				if len(log) < seen {
					t.Errorf("%s: log shrank from %d to %d entries", user, seen, len(log))
					return
				}
				seen = len(log)
			}
		}()
	}
	wg.Wait()
	if got := len(db.AccessLog("")); got != writers*perWriter*2 {
		t.Fatalf("access log holds %d entries, want %d", got, writers*perWriter*2)
	}
	for w := 0; w < writers; w++ {
		log := db.AccessLog(fmt.Sprintf("u%d", w))
		for i, e := range log {
			if want := []AccessKind{AccessLogin, AccessLogout}[i%2]; e.Kind != want {
				t.Fatalf("u%d entry %d is a %v, want %v", w, i, e.Kind, want)
			}
		}
	}
}
