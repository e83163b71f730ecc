package jobs

import (
	"fmt"
	"strconv"
	"strings"
)

// defaultTenantName is the tenant requests without an X-SIDR-Tenant
// header (or Request.Tenant field) are accounted to.
const defaultTenantName = "default"

// TenantPolicy is one tenant's admission and scheduling contract.
type TenantPolicy struct {
	// MaxInFlight caps the tenant's non-terminal jobs (queued, running
	// and attached collapse subscribers). 0 means unlimited. Submissions
	// beyond the cap fail with ErrTenantQuota (HTTP 429,
	// detail:"tenant-quota").
	MaxInFlight int
	// Weight is the tenant's weighted-fair share of the shared task
	// executor: a weight-w tenant's jobs dispatch up to w consecutive
	// tasks per scheduling turn when contending (default 1).
	Weight int
}

// ParseTenantPolicy parses "MAXINFLIGHT" or "MAXINFLIGHT:WEIGHT",
// e.g. "8" or "8:4". 0 for either field keeps its default (unlimited /
// weight 1).
func ParseTenantPolicy(s string) (TenantPolicy, error) {
	var p TenantPolicy
	quota, weight, hasWeight := s, "", false
	if i := strings.IndexByte(s, ':'); i >= 0 {
		quota, weight, hasWeight = s[:i], s[i+1:], true
	}
	q, err := strconv.Atoi(strings.TrimSpace(quota))
	if err != nil || q < 0 {
		return p, fmt.Errorf("jobs: bad tenant max-in-flight %q", quota)
	}
	p.MaxInFlight = q
	if hasWeight {
		w, err := strconv.Atoi(strings.TrimSpace(weight))
		if err != nil || w < 0 {
			return p, fmt.Errorf("jobs: bad tenant weight %q", weight)
		}
		p.Weight = w
	}
	return p, nil
}

// ParseTenantSpec parses "NAME=MAXINFLIGHT[:WEIGHT]" (the sidrd -tenant
// flag grammar) into a name and policy.
func ParseTenantSpec(s string) (string, TenantPolicy, error) {
	name, rest, ok := strings.Cut(s, "=")
	name = strings.TrimSpace(name)
	if !ok || name == "" {
		return "", TenantPolicy{}, fmt.Errorf("jobs: tenant spec %q needs NAME=MAXINFLIGHT[:WEIGHT]", s)
	}
	p, err := ParseTenantPolicy(rest)
	if err != nil {
		return "", TenantPolicy{}, err
	}
	return name, p, nil
}

// tenantPolicy resolves the effective policy for a tenant name.
func (m *Manager) tenantPolicy(tenant string) TenantPolicy {
	if p, ok := m.cfg.Tenants[tenant]; ok {
		return p
	}
	return m.cfg.TenantDefault
}

// tenantWeight is the executor weight the tenant's jobs run with.
func (m *Manager) tenantWeight(tenant string) int {
	if w := m.tenantPolicy(tenant).Weight; w > 0 {
		return w
	}
	return 1
}
