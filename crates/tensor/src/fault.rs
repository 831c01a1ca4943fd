//! Deterministic fault injection (failpoints) for the session runtime.
//!
//! A *failpoint* is a named site in the runtime that can be armed to
//! misbehave on a chosen hit: panic like a buggy kernel, return a typed
//! error, emit a non-finite value, corrupt an exchange buffer, or
//! pretend the buffer pool is exhausted. Chaos tests use them to prove
//! the containment story (a step returns `Err`, never aborts, never
//! returns wrong data) without depending on real hardware faults.
//!
//! # Spec grammar
//!
//! The plan is a comma-separated list of `site:action` rules, each with
//! an optional trigger suffix:
//!
//! | spec                | fires                                   |
//! |---------------------|-----------------------------------------|
//! | `site:action`       | on every hit of `site`                  |
//! | `site:action@N`     | on exactly the `N`-th hit (1-based)      |
//! | `site:action%K`     | on every `K`-th hit                     |
//!
//! Actions: `panic`, `error`, `nan`, `corrupt`, `exhaust`. Sites wired
//! by `gnnopt-exec` and this crate: `refexec` (reference kernel
//! dispatch), `fused.launch` (fused interpreter program launch),
//! `worker` (inside every `std::thread::scope` worker body),
//! `pool.take` (buffer-pool takes; every action degrades to a forced
//! pool miss — see below), `exchange` (sharded halo exchange staging).
//!
//! Triggering is **deterministic**: each rule carries an atomic hit
//! counter, so for a fixed plan and a fixed execution schedule the same
//! hit fires every run — no RNG, no time dependence. (Under
//! multi-threaded workers the counter is still exact; *which* worker
//! observes the firing hit may vary, which never matters for
//! containment semantics.)
//!
//! # Zero cost when unset
//!
//! [`check`] first reads one relaxed `AtomicBool`; with no plan
//! installed that is the entire cost, so production paths keep the
//! failpoints compiled in. Plans come from the `GNNOPT_FAILPOINTS`
//! environment variable (parsed loudly by the session builders) or
//! programmatically via [`install`] / [`FaultGuard`] in tests.
//!
//! # Site/action support
//!
//! `pool.take` is special: a pool take returns a buffer, not a
//! `Result`, and pool exhaustion must *degrade* (heap fallback, counted
//! in the pool's miss counter), not fail. Every action at `pool.take`
//! therefore behaves as `exhaust`. All other sites honor their action
//! literally; unsupported combinations (e.g. `corrupt` at `refexec`)
//! fall back to the site's loudest supported behavior at the wiring
//! site, documented there.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::RwLock;

/// Environment variable holding the failpoint plan. Parsed by the
/// session builders with [`install_from_env`]; garbage is a loud build
/// error, never silently ignored.
pub const FAILPOINTS_ENV_VAR: &str = "GNNOPT_FAILPOINTS";

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic at the site (exercises panic containment).
    Panic,
    /// Return a typed injected error from the site.
    Error,
    /// Inject a non-finite value into the site's output (exercises the
    /// numeric guard).
    Nan,
    /// Corrupt the site's staging buffer (exercises exchange
    /// validation).
    Corrupt,
    /// Pretend a resource is exhausted (exercises graceful
    /// degradation).
    Exhaust,
}

impl FaultAction {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "panic" => Ok(Self::Panic),
            "error" => Ok(Self::Error),
            "nan" => Ok(Self::Nan),
            "corrupt" => Ok(Self::Corrupt),
            "exhaust" => Ok(Self::Exhaust),
            other => Err(format!(
                "unknown fault action '{other}' (expected panic|error|nan|corrupt|exhaust)"
            )),
        }
    }

    /// Lowercase name, matching the spec grammar.
    pub fn name(self) -> &'static str {
        match self {
            Self::Panic => "panic",
            Self::Error => "error",
            Self::Nan => "nan",
            Self::Corrupt => "corrupt",
            Self::Exhaust => "exhaust",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trigger {
    /// Fire on every hit.
    Every,
    /// Fire on exactly the n-th hit (1-based), once.
    Once(u64),
    /// Fire on every k-th hit.
    Modulo(u64),
}

struct Rule {
    site: String,
    action: FaultAction,
    trigger: Trigger,
    hits: AtomicU64,
}

/// Fast-path arm flag: one relaxed load decides "no failpoints" without
/// touching the plan lock.
static ARMED: AtomicBool = AtomicBool::new(false);

static PLAN: RwLock<Vec<Rule>> = RwLock::new(Vec::new());

/// True when a non-empty failpoint plan is installed.
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Evaluates the failpoint at `site`: advances every matching rule's
/// hit counter and returns the action of the first rule that fires.
/// One relaxed atomic load when no plan is installed.
#[inline]
pub fn check(site: &str) -> Option<FaultAction> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    check_armed(site)
}

#[cold]
fn check_armed(site: &str) -> Option<FaultAction> {
    let plan = PLAN.read().expect("failpoint plan lock poisoned");
    let mut fired = None;
    for rule in plan.iter().filter(|r| r.site == site) {
        let n = rule.hits.fetch_add(1, Ordering::Relaxed) + 1;
        let fire = match rule.trigger {
            Trigger::Every => true,
            Trigger::Once(k) => n == k,
            Trigger::Modulo(k) => n.is_multiple_of(k),
        };
        if fire && fired.is_none() {
            fired = Some(rule.action);
        }
    }
    fired
}

/// How often `site` has been evaluated under the installed plan (the
/// most any of its rules counted): with a rule that never fires, a
/// census of a site — the allocation gate counts worker bodies by it.
pub fn hits(site: &str) -> u64 {
    let plan = PLAN.read().expect("failpoint plan lock poisoned");
    let rules = plan.iter().filter(|r| r.site == site);
    rules
        .map(|r| r.hits.load(Ordering::Relaxed))
        .max()
        .unwrap_or(0)
}

/// The canonical payload of an injected panic, so tests can recognize
/// it in `ExecError::KernelPanic { payload, .. }`.
pub fn injected_panic_message(site: &str) -> String {
    format!("injected fault: panic at failpoint '{site}'")
}

fn parse_rule(item: &str) -> Result<Rule, String> {
    let (site, rest) = item
        .split_once(':')
        .ok_or_else(|| format!("failpoint '{item}' is missing ':' (expected site:action)"))?;
    let site = site.trim();
    if site.is_empty() {
        return Err(format!("failpoint '{item}' has an empty site name"));
    }
    let rest = rest.trim();
    let (action, trigger) = if let Some((a, n)) = rest.split_once('@') {
        let n: u64 = n
            .trim()
            .parse()
            .map_err(|_| format!("failpoint '{item}': '@' wants a positive integer hit index"))?;
        if n == 0 {
            return Err(format!("failpoint '{item}': hit indices are 1-based"));
        }
        (FaultAction::parse(a.trim())?, Trigger::Once(n))
    } else if let Some((a, k)) = rest.split_once('%') {
        let k: u64 = k
            .trim()
            .parse()
            .map_err(|_| format!("failpoint '{item}': '%' wants a positive integer period"))?;
        if k == 0 {
            return Err(format!("failpoint '{item}': period must be >= 1"));
        }
        (FaultAction::parse(a.trim())?, Trigger::Modulo(k))
    } else {
        (FaultAction::parse(rest)?, Trigger::Every)
    };
    Ok(Rule {
        site: site.to_string(),
        action,
        trigger,
        hits: AtomicU64::new(0),
    })
}

/// Parses and installs a failpoint plan, replacing any existing plan.
/// An empty (or all-whitespace) spec clears the plan. Errors name the
/// offending rule; nothing is installed on error.
pub fn install(spec: &str) -> Result<(), String> {
    let mut rules = Vec::new();
    for item in spec.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        rules.push(parse_rule(item)?);
    }
    let mut plan = PLAN.write().expect("failpoint plan lock poisoned");
    ARMED.store(!rules.is_empty(), Ordering::Relaxed);
    *plan = rules;
    Ok(())
}

/// Removes every installed failpoint and disarms the fast path.
pub fn clear() {
    let mut plan = PLAN.write().expect("failpoint plan lock poisoned");
    ARMED.store(false, Ordering::Relaxed);
    plan.clear();
}

/// Installs the plan from [`FAILPOINTS_ENV_VAR`] if the variable is
/// set. Returns `Ok(true)` when a plan was installed, `Ok(false)` when
/// the variable is unset or empty (existing plan untouched), and the
/// parse error otherwise.
pub fn install_from_env() -> Result<bool, String> {
    match std::env::var(FAILPOINTS_ENV_VAR) {
        Ok(spec) if !spec.trim().is_empty() => install(&spec).map(|()| true),
        _ => Ok(false),
    }
}

/// RAII plan for tests: installs on construction, clears on drop (panic
/// included), so a failing chaos case never leaks its plan into the
/// next test. Fault state is process-global — tests that install plans
/// must serialize on a shared mutex.
pub struct FaultGuard(());

impl FaultGuard {
    /// Installs `spec`, replacing any existing plan.
    ///
    /// # Errors
    ///
    /// Returns the parse error verbatim; nothing is installed.
    pub fn install(spec: &str) -> Result<Self, String> {
        install(spec)?;
        Ok(Self(()))
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        clear();
    }
}

/// Serializes this crate's unit tests that mutate the process-global
/// plan (all unit tests share one process).
#[cfg(test)]
pub(crate) static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn unarmed_is_none() {
        let _l = lock();
        clear();
        assert!(!armed());
        assert_eq!(check("refexec"), None);
    }

    #[test]
    fn every_once_and_modulo_triggers() {
        let _l = lock();
        {
            let _g = FaultGuard::install("a:panic,b:error@2,c:nan%3").unwrap();
            assert!(armed());
            assert_eq!(check("a"), Some(FaultAction::Panic));
            assert_eq!(check("a"), Some(FaultAction::Panic));
            assert_eq!(check("b"), None);
            assert_eq!(check("b"), Some(FaultAction::Error));
            assert_eq!(check("b"), None, "@N fires exactly once");
            assert_eq!(check("c"), None);
            assert_eq!(check("c"), None);
            assert_eq!(check("c"), Some(FaultAction::Nan));
            assert_eq!(check("c"), None);
            assert_eq!(check("unwired"), None);
        }
        assert!(!armed(), "guard drop disarms");
    }

    #[test]
    fn garbage_specs_are_loud() {
        let _l = lock();
        for bad in [
            "nocolon",
            "site:",
            ":panic",
            "site:explode",
            "site:panic@0",
            "site:panic@x",
            "site:nan%0",
        ] {
            assert!(install(bad).is_err(), "spec '{bad}' must be rejected");
        }
        assert!(!armed(), "failed install leaves the plan disarmed");
    }

    #[test]
    fn empty_spec_clears() {
        let _l = lock();
        install("a:panic").unwrap();
        assert!(armed());
        install("  ").unwrap();
        assert!(!armed());
    }
}
