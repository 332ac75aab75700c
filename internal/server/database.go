// Package server implements the multimedia server of the paper's
// architecture: the multimedia database holding presentation scenarios, the
// flow scheduler that derives per-stream flow scenarios and activates the
// media servers, the per-session media senders with their quality
// converters, the server QoS manager fed by client feedback reports,
// connection admission, suspension with a grace period, and federated
// search across servers.
package server

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/hml"
	"repro/internal/protocol"
	"repro/internal/scenario"
)

// Document is one stored hypermedia document with its parsed scenario.
type Document struct {
	Name     string
	Source   string
	Doc      *hml.Document
	Scenario *scenario.Scenario
	// Description is the catalogue blurb.
	Description string
}

// Database is the multimedia database: named documents plus their parsed
// presentation scenarios.
type Database struct {
	mu   sync.Mutex
	docs map[string]*Document
	// topicsFrame is the listing TopicsFrame last built, for server
	// topicsOf; Put drops it.
	topicsFrame []byte
	topicsOf    string
}

// NewDatabase creates an empty database.
func NewDatabase() *Database { return &Database{docs: map[string]*Document{}} }

// Put parses, validates and stores a document under name.
func (db *Database) Put(name, src, description string) error {
	doc, err := hml.Parse(src)
	if err != nil {
		return err
	}
	doc.Name = name
	sc, err := scenario.FromDocument(doc)
	if err != nil {
		return err
	}
	sc.Name = name
	db.mu.Lock()
	defer db.mu.Unlock()
	db.docs[name] = &Document{Name: name, Source: src, Doc: doc, Scenario: sc, Description: description}
	db.topicsFrame = nil
	return nil
}

// Get returns the stored document.
func (db *Database) Get(name string) (*Document, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	d, ok := db.docs[name]
	return d, ok
}

// Len returns the number of stored documents.
func (db *Database) Len() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.docs)
}

// Names returns stored document names sorted.
func (db *Database) Names() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]string, 0, len(db.docs))
	for n := range db.docs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TopicsFrame returns the catalogue listing for this server, sorted by
// name, encoded as a request-ID-0 Topics frame. It is built on the first
// call after the catalogue changes and kept until the next: every
// topic-list reply sends and caches this one frame, so callers must not
// modify it.
func (db *Database) TopicsFrame(serverName string) []byte {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.topicsFrame != nil && db.topicsOf == serverName {
		return db.topicsFrame
	}
	var topics []protocol.TopicInfo
	for _, d := range db.docs {
		topics = append(topics, protocol.TopicInfo{
			Name:        d.Name,
			Title:       d.Doc.Title,
			Server:      serverName,
			Description: d.Description,
		})
	}
	sort.Slice(topics, func(i, j int) bool { return topics[i].Name < topics[j].Name })
	frame, err := protocol.NewFrame(protocol.MsgTopics, 0, &protocol.Topics{Topics: topics})
	if err != nil {
		panic(err)
	}
	db.topicsFrame, db.topicsOf = frame, serverName
	return frame
}

// Search scans "all the text documents stored in that server" for the token
// (title, headings, text content and description, case-insensitive) and
// returns only the matching lessons with their server location.
func (db *Database) Search(token, serverName string) []protocol.TopicInfo {
	token = strings.ToLower(strings.TrimSpace(token))
	if token == "" {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	var out []protocol.TopicInfo
	for _, d := range db.docs {
		if documentMatches(d, token) {
			out = append(out, protocol.TopicInfo{
				Name:        d.Name,
				Title:       d.Doc.Title,
				Server:      serverName,
				Description: d.Description,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func documentMatches(d *Document, token string) bool {
	if strings.Contains(strings.ToLower(d.Doc.Title), token) {
		return true
	}
	if strings.Contains(strings.ToLower(d.Description), token) {
		return true
	}
	for _, s := range d.Doc.Sentences {
		if s.Heading != nil && strings.Contains(strings.ToLower(s.Heading.Text), token) {
			return true
		}
	}
	for _, it := range d.Doc.Items() {
		if t, ok := it.(*hml.Text); ok {
			if strings.Contains(strings.ToLower(t.Plain()), token) {
				return true
			}
		}
	}
	return false
}
