package dserve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"dmdc/internal/resultcache"
)

// maxCacheEntryBytes bounds an entry body a peer fetch reads; entries are
// about a KB of binary stats, so 16 MiB is generous without being
// unbounded.
const maxCacheEntryBytes = 16 << 20

// CachePeer fetches raw result-cache entries from another dmdcd instance
// over GET /v1/cache/{key}, implementing resultcache.Peer so a Tiered
// store can fall back to the fleet. It returns the body and the peer's
// claimed hash verbatim; the Tiered store re-hashes and fails closed on
// mismatch, so a lying or corrupted peer can degrade performance but
// never correctness.
type CachePeer struct {
	base   string
	client *http.Client
}

// NewCachePeer builds a peer client for the dmdcd server at baseURL
// (e.g. "http://host:8321"). client nil means http.DefaultClient.
func NewCachePeer(baseURL string, client *http.Client) *CachePeer {
	if client == nil {
		client = http.DefaultClient
	}
	return &CachePeer{base: strings.TrimRight(baseURL, "/"), client: client}
}

// Name identifies the peer by its base URL.
func (p *CachePeer) Name() string { return p.base }

// FetchEntry implements resultcache.Peer. A 404 is a clean miss
// (resultcache.ErrPeerMiss); a format-version mismatch in the response
// headers is an error — a peer speaking a different cache format must
// fail closed, not serve stale-semantics results.
func (p *CachePeer) FetchEntry(ctx context.Context, key string) ([]byte, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/v1/cache/"+key, nil)
	if err != nil {
		return nil, "", fmt.Errorf("dserve: peer %s: %w", p.base, err)
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, "", fmt.Errorf("dserve: peer %s: %w", p.base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, "", resultcache.ErrPeerMiss
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("dserve: peer %s: %w", p.base, errBody(resp))
	}
	if f := resp.Header.Get(CacheFormatHeader); f != strconv.Itoa(resultcache.FormatVersion) {
		return nil, "", fmt.Errorf("dserve: peer %s serves cache format %q, this instance speaks %d",
			p.base, f, resultcache.FormatVersion)
	}
	sum := resp.Header.Get(CacheSumHeader)
	if sum == "" {
		return nil, "", fmt.Errorf("dserve: peer %s sent no %s header", p.base, CacheSumHeader)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxCacheEntryBytes+1))
	if err != nil {
		return nil, "", fmt.Errorf("dserve: peer %s: read entry: %w", p.base, err)
	}
	if len(body) > maxCacheEntryBytes {
		return nil, "", fmt.Errorf("dserve: peer %s: entry exceeds %d bytes", p.base, maxCacheEntryBytes)
	}
	return body, sum, nil
}
