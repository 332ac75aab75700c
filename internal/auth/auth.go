// Package auth implements the service's user-facing administrative
// primitives: the subscription form and the "coherent, centralized database
// of authorized users", authentication, the pricing mechanism, and the
// access log that captures "the exact time logged into the service, as well
// as the lessons that are retrieved".
package auth

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/qos"
)

// User is one subscribed user record.
type User struct {
	Name     string
	Password string
	RealName string
	Address  string
	Email    string
	Phone    string
	Class    qos.PricingClass
	// SubscribedAt records when the subscription form was accepted.
	SubscribedAt time.Time
}

// AccessKind classifies access-log entries.
type AccessKind int

// Access log entry kinds.
const (
	AccessLogin AccessKind = iota
	AccessLogout
	AccessRetrieve
	AccessDenied
)

func (k AccessKind) String() string {
	switch k {
	case AccessLogin:
		return "login"
	case AccessLogout:
		return "logout"
	case AccessRetrieve:
		return "retrieve"
	case AccessDenied:
		return "denied"
	default:
		return "unknown"
	}
}

// AccessEntry is one access-log record.
type AccessEntry struct {
	At     time.Time
	User   string
	Kind   AccessKind
	Detail string
}

// Charge is one pricing-mechanism record.
type Charge struct {
	At     time.Time
	User   string
	Amount float64 // service units
	Detail string
}

// Errors returned by the database.
var (
	ErrUnknownUser  = errors.New("auth: unknown user")
	ErrBadPassword  = errors.New("auth: bad password")
	ErrDuplicate    = errors.New("auth: user already subscribed")
	ErrorIncomplete = errors.New("auth: incomplete subscription form")
)

// DB is the centralized database of authorized users, shared by all servers
// of the service (the paper propagates the form "to every server of the
// service"; a shared store models the resulting coherent database).
type DB struct {
	mu      sync.Mutex
	users   map[string]*User
	log     chunks[AccessEntry]
	charges chunks[Charge]
	// RatePerSecond prices connection time per class.
	rates map[qos.PricingClass]float64
}

// NewDB creates an empty user database with default pricing rates.
func NewDB() *DB {
	return &DB{
		users: map[string]*User{},
		rates: map[qos.PricingClass]float64{
			qos.Economy:  1,
			qos.Standard: 2,
			qos.Premium:  5,
		},
	}
}

// Subscribe validates and stores a subscription form.
func (db *DB) Subscribe(u User, at time.Time) error {
	if u.Name == "" || u.Password == "" || u.Email == "" {
		return ErrorIncomplete
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.users[u.Name]; ok {
		return ErrDuplicate
	}
	u.SubscribedAt = at
	db.users[u.Name] = &u
	return nil
}

// Authenticate verifies credentials and logs the attempt.
func (db *DB) Authenticate(name, password string, at time.Time) (User, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	u, ok := db.users[name]
	if !ok {
		db.log.add(AccessEntry{At: at, User: name, Kind: AccessDenied, Detail: "unknown user"})
		return User{}, ErrUnknownUser
	}
	if u.Password != password {
		db.log.add(AccessEntry{At: at, User: name, Kind: AccessDenied, Detail: "bad password"})
		return User{}, ErrBadPassword
	}
	db.log.add(AccessEntry{At: at, User: name, Kind: AccessLogin})
	return *u, nil
}

// LogRetrieval records a lesson retrieval.
func (db *DB) LogRetrieval(user, lesson string, at time.Time) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.log.add(AccessEntry{At: at, User: user, Kind: AccessRetrieve, Detail: lesson})
}

// LogLogout records a disconnect.
func (db *DB) LogLogout(user string, at time.Time) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.log.add(AccessEntry{At: at, User: user, Kind: AccessLogout})
}

// AccessLog returns entries for a user ("" = all).
func (db *DB) AccessLog(user string) []AccessEntry {
	db.mu.Lock()
	defer db.mu.Unlock()
	var out []AccessEntry
	for _, chunk := range db.log {
		for _, e := range chunk {
			if user == "" || e.User == user {
				out = append(out, e)
			}
		}
	}
	return out
}

// ChargeSession records the pricing for a completed session of the given
// duration and returns the amount.
func (db *DB) ChargeSession(user string, d time.Duration, at time.Time) (float64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	u, ok := db.users[user]
	if !ok {
		return 0, ErrUnknownUser
	}
	amount := db.rates[u.Class] * d.Seconds()
	db.charges.add(Charge{
		At: at, User: user, Amount: amount,
		Detail: fmt.Sprintf("session %.0fs @ %s", d.Seconds(), u.Class),
	})
	return amount, nil
}

// Balance returns a user's total charges.
func (db *DB) Balance(user string) float64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	sum := 0.0
	for _, chunk := range db.charges {
		for _, c := range chunk {
			if c.User == user {
				sum += c.Amount
			}
		}
	}
	return sum
}

// chunkLen is how many entries one chunk of a log holds.
const chunkLen = 256

// chunks is an append-only log kept in fixed-size chunks, oldest first: an
// append fills the last chunk or starts a new one, so no entry is ever
// copied again as the log grows.
type chunks[T any] [][]T

func (l *chunks[T]) add(e T) {
	if n := len(*l); n == 0 || len((*l)[n-1]) == chunkLen {
		*l = append(*l, make([]T, 0, chunkLen))
	}
	last := &(*l)[len(*l)-1]
	*last = append(*last, e)
}
