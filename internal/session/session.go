// Package session implements m.Site's multi-session state management
// (§3.2): each mobile client is issued a session cookie; files
// generated for the session live under a protected per-user
// subdirectory, created on first use; the proxy keeps a per-user cookie
// jar so it can fetch authenticated origin content on the client's
// behalf; and HTTP credentials are stored and replayed per user. This
// is the piece that lets a single lightweight proxy replace one browser
// instance per client.
package session

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/cookiejar"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"msite/internal/obs"
)

// removeAll is swapped out by tests to exercise teardown failures.
var removeAll = os.RemoveAll

// CookieName is the proxy session cookie.
const CookieName = "msite_session"

// DefaultTTL is how long an idle session survives before GC.
const DefaultTTL = 2 * time.Hour

// ErrNotFound is returned for unknown or expired session IDs.
var ErrNotFound = errors.New("session: not found")

// ErrTooManySessions is returned by Create/Ensure when the manager's
// session cap (-max-sessions) is reached: session state is real memory
// and disk, so creation itself must be sheddable under overload.
var ErrTooManySessions = errors.New("session: too many live sessions")

// Credentials is one stored HTTP authentication credential.
type Credentials struct {
	User string
	Pass string
}

// Session is one mobile client's server-side state.
type Session struct {
	// ID is the random session identifier carried in the cookie.
	ID string
	// Dir is the session's protected subdirectory; generated subpages
	// and per-user images are written beneath it. It exists only once
	// SubpageDir or ImageDir has created it.
	Dir string
	// Jar holds the origin cookies the proxy presents on the client's
	// behalf.
	Jar http.CookieJar

	mu       sync.Mutex
	auth     map[string]Credentials // keyed by host
	values   map[string]string
	lastSeen time.Time
	personal bool
}

// MarkPersonalized flags the session as carrying user-specific origin
// state (stored HTTP credentials, a marshaled form login). The proxy
// refuses to coalesce a personalized session's adaptation with other
// sessions' — their origin content may differ.
func (s *Session) MarkPersonalized() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.personal = true
}

// Personalized reports whether the session carries user-specific origin
// state.
func (s *Session) Personalized() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.personal
}

// SubpageDir returns the directory generated subpages are written to,
// creating it (and the session directory, mode 0700) if needed.
func (s *Session) SubpageDir() (string, error) {
	return s.ensureDir("pages")
}

// ImageDir returns the directory pre-rendered per-user images are written
// to, creating it if needed.
func (s *Session) ImageDir() (string, error) {
	return s.ensureDir("images")
}

func (s *Session) ensureDir(sub string) (string, error) {
	dir := filepath.Join(s.Dir, sub)
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return "", fmt.Errorf("session: creating %s dir: %w", sub, err)
	}
	return dir, nil
}

// SetAuth stores HTTP credentials for a host.
func (s *Session) SetAuth(host string, c Credentials) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.auth[host] = c
}

// Auth returns the stored credentials for a host.
func (s *Session) Auth(host string) (Credentials, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.auth[host]
	return c, ok
}

// Set stores an arbitrary session value.
func (s *Session) Set(key, val string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.values[key] = val
}

// Get returns an arbitrary session value.
func (s *Session) Get(key string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.values[key]
	return v, ok
}

// CookieJar returns the session's current origin cookie jar under the
// session lock, so concurrent fetch workers never race a ClearCookies
// jar swap.
func (s *Session) CookieJar() http.CookieJar {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Jar
}

// ClearCookies discards the session's origin cookie jar — the mechanism
// behind the paper's "replacement of a logout button with a get
// parameter, which allows cookies to be cleared on the proxy".
func (s *Session) ClearCookies() error {
	jar, err := cookiejar.New(nil)
	if err != nil {
		return fmt.Errorf("session: resetting cookie jar: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Jar = jar
	return nil
}

// Manager creates, finds, and expires sessions. Safe for concurrent use.
type Manager struct {
	root  string
	ttl   time.Duration
	clock func() time.Time

	mu       sync.Mutex
	sessions map[string]*Session
	limit    int // 0 = uncapped

	// onExpire callbacks run (outside the manager lock) whenever a
	// session leaves the manager — idle expiry in Get, explicit Delete,
	// or a GC pass. The proxy uses this to release per-session
	// adaptation state so long-running deployments don't leak it.
	expireMu sync.Mutex
	onExpire []func(id string)

	logger         atomic.Pointer[slog.Logger]
	cleanupErrs    atomic.Uint64
	obsCleanupErrs atomic.Pointer[obs.Counter]
}

// SetLogger directs session teardown diagnostics to l. Without one, the
// default slog logger is used.
func (m *Manager) SetLogger(l *slog.Logger) {
	if l != nil {
		m.logger.Store(l)
	}
}

// cleanup removes a session directory. Failures are not fatal — the
// session is already gone from the manager — but they leak disk, so they
// are logged and counted (msite_session_cleanup_errors_total) instead of
// being silently discarded.
func (m *Manager) cleanup(id, dir string) {
	err := removeAll(dir)
	if err == nil {
		return
	}
	m.cleanupErrs.Add(1)
	if c := m.obsCleanupErrs.Load(); c != nil {
		c.Inc()
	}
	l := m.logger.Load()
	if l == nil {
		l = slog.Default()
	}
	l.Error("session: removing session dir", "session", id, "dir", dir, "err", err)
}

// CleanupErrors returns how many session-directory teardowns have failed.
func (m *Manager) CleanupErrors() uint64 { return m.cleanupErrs.Load() }

// OnExpire registers fn to run with the session ID whenever a session is
// expired, deleted, or garbage-collected. Callbacks run outside the
// manager lock; they must not block for long.
func (m *Manager) OnExpire(fn func(id string)) {
	m.expireMu.Lock()
	defer m.expireMu.Unlock()
	m.onExpire = append(m.onExpire, fn)
}

// notifyExpired invokes every OnExpire callback for each removed id.
func (m *Manager) notifyExpired(ids ...string) {
	m.expireMu.Lock()
	fns := make([]func(string), len(m.onExpire))
	copy(fns, m.onExpire)
	m.expireMu.Unlock()
	for _, id := range ids {
		for _, fn := range fns {
			fn(id)
		}
	}
}

// NewManager returns a Manager writing session directories under root.
func NewManager(root string) (*Manager, error) {
	return NewManagerWithClock(root, DefaultTTL, time.Now)
}

// NewManagerWithClock allows a custom TTL and clock.
func NewManagerWithClock(root string, ttl time.Duration, clock func() time.Time) (*Manager, error) {
	if root == "" {
		return nil, errors.New("session: empty root directory")
	}
	if err := os.MkdirAll(root, 0o700); err != nil {
		return nil, fmt.Errorf("session: creating root: %w", err)
	}
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	return &Manager{
		root:     root,
		ttl:      ttl,
		clock:    clock,
		sessions: make(map[string]*Session),
	}, nil
}

// InstrumentObs registers the manager's live-session gauge
// (msite_sessions_live) and the teardown-failure counter
// (msite_session_cleanup_errors_total) on reg. Idempotent; safe to call
// for managers shared across several proxies.
func (m *Manager) InstrumentObs(reg *obs.Registry) {
	reg.GaugeFunc("msite_sessions_live", func() float64 { return float64(m.Len()) })
	m.obsCleanupErrs.Store(reg.Counter("msite_session_cleanup_errors_total"))
}

// SetLimit caps the number of live sessions (the -max-sessions knob);
// Create and Ensure return ErrTooManySessions past it. n <= 0 removes
// the cap.
func (m *Manager) SetLimit(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n < 0 {
		n = 0
	}
	m.limit = n
}

// Create makes a fresh session with its own cookie jar. The session's
// directory is created lazily, by the first SubpageDir or ImageDir
// call, so sessions that never write files never touch the disk.
func (m *Manager) Create() (*Session, error) {
	m.mu.Lock()
	if m.limit > 0 && len(m.sessions) >= m.limit {
		m.mu.Unlock()
		return nil, ErrTooManySessions
	}
	m.mu.Unlock()
	id, err := newID()
	if err != nil {
		return nil, err
	}
	jar, err := cookiejar.New(nil)
	if err != nil {
		return nil, fmt.Errorf("session: creating cookie jar: %w", err)
	}
	s := &Session{
		ID:       id,
		Dir:      filepath.Join(m.root, id),
		Jar:      jar,
		auth:     make(map[string]Credentials),
		values:   make(map[string]string),
		lastSeen: m.clock(),
	}
	m.mu.Lock()
	if m.limit > 0 && len(m.sessions) >= m.limit {
		// Re-check under the insert lock: concurrent Creates may have
		// filled the remaining room meanwhile.
		m.mu.Unlock()
		return nil, ErrTooManySessions
	}
	m.sessions[id] = s
	m.mu.Unlock()
	return s, nil
}

// Get returns the live session for id, refreshing its idle timer.
func (m *Manager) Get(id string) (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	if !ok {
		return nil, ErrNotFound
	}
	s.mu.Lock()
	expired := m.clock().Sub(s.lastSeen) > m.ttl
	if !expired {
		s.lastSeen = m.clock()
	}
	s.mu.Unlock()
	if expired {
		delete(m.sessions, id)
		m.mu.Unlock()
		m.cleanup(id, s.Dir)
		m.notifyExpired(id)
		m.mu.Lock() // re-acquire for the deferred unlock
		return nil, ErrNotFound
	}
	return s, nil
}

// Delete removes a session and its directory.
func (m *Manager) Delete(id string) error {
	m.mu.Lock()
	s, ok := m.sessions[id]
	delete(m.sessions, id)
	m.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	m.notifyExpired(id)
	if err := os.RemoveAll(s.Dir); err != nil {
		return fmt.Errorf("session: removing dir: %w", err)
	}
	return nil
}

// GC removes idle sessions and their directories, returning the count.
func (m *Manager) GC() int {
	m.mu.Lock()
	now := m.clock()
	var stale []*Session
	for id, s := range m.sessions {
		s.mu.Lock()
		idle := now.Sub(s.lastSeen) > m.ttl
		s.mu.Unlock()
		if idle {
			stale = append(stale, s)
			delete(m.sessions, id)
		}
	}
	m.mu.Unlock()
	for _, s := range stale {
		m.cleanup(s.ID, s.Dir)
		m.notifyExpired(s.ID)
	}
	return len(stale)
}

// Len returns the number of live sessions.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// FromRequest returns the session identified by the request's cookie.
func (m *Manager) FromRequest(r *http.Request) (*Session, error) {
	c, err := r.Cookie(CookieName)
	if err != nil {
		return nil, ErrNotFound
	}
	return m.Get(c.Value)
}

// Ensure returns the request's session, creating one (and setting the
// cookie on w) when the client has none — "Upon starting a mobile session
// for the first time, the mobile browser is issued a session cookie"
// (§3.2).
func (m *Manager) Ensure(w http.ResponseWriter, r *http.Request) (*Session, error) {
	if s, err := m.FromRequest(r); err == nil {
		return s, nil
	}
	s, err := m.Create()
	if err != nil {
		return nil, err
	}
	http.SetCookie(w, &http.Cookie{
		Name:     CookieName,
		Value:    s.ID,
		Path:     "/",
		HttpOnly: true,
	})
	return s, nil
}

func newID() (string, error) {
	var buf [16]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return "", fmt.Errorf("session: generating id: %w", err)
	}
	return hex.EncodeToString(buf[:]), nil
}
