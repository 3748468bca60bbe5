//! Cookies and cookie jars — the *client-side state* of §3.6.
//!
//! The paper's pollution machinery revolves around which cookies a PPC
//! sends with a fetch and which cookies a fetch leaves behind. The jar is
//! deliberately simple: name/value pairs scoped by domain, with first- vs
//! third-party provenance tracked so the add-on can report tracker presence.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// One cookie.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cookie {
    /// Cookie name.
    pub name: String,
    /// Cookie value.
    pub value: String,
    /// True when set by a third-party (tracker) domain.
    pub third_party: bool,
}

/// Per-domain cookie storage.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CookieJar {
    /// domain → cookies (BTreeMap for deterministic iteration).
    store: BTreeMap<String, Vec<Cookie>>,
}

impl CookieJar {
    /// Empty jar.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a cookie for `domain`, replacing a same-named one in place (a
    /// new one goes last), and returns what it replaced, like `BTreeMap::insert`.
    pub fn set(&mut self, domain: &str, cookie: Cookie) -> Option<Cookie> {
        let Some(cookies) = self.store.get_mut(domain) else {
            self.store.insert(domain.to_string(), vec![cookie]);
            return None;
        };
        if let Some(existing) = cookies.iter_mut().find(|c| c.name == cookie.name) {
            return Some(std::mem::replace(existing, cookie));
        }
        cookies.push(cookie);
        None
    }

    /// Removes `domain`'s cookie called `name` and returns it; a domain
    /// left without cookies is dropped, so no domain maps to nothing.
    pub fn remove(&mut self, domain: &str, name: &str) -> Option<Cookie> {
        let cookies = self.store.get_mut(domain)?;
        let removed = cookies.remove(cookies.iter().position(|c| c.name == name)?);
        if cookies.is_empty() {
            self.store.remove(domain);
        }
        Some(removed)
    }

    /// Cookies stored for `domain`.
    pub fn get(&self, domain: &str) -> &[Cookie] {
        self.store.get(domain).map_or(&[], Vec::as_slice)
    }

    /// Value of a specific cookie.
    pub fn value(&self, domain: &str, name: &str) -> Option<&str> {
        self.get(domain)
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value.as_str())
    }

    /// Removes every cookie of `domain`. Returns how many were removed.
    pub fn clear_domain(&mut self, domain: &str) -> usize {
        self.store.remove(domain).map_or(0, |v| v.len())
    }

    /// All domains that have at least one cookie.
    pub fn domains(&self) -> impl Iterator<Item = &str> {
        self.store.keys().map(String::as_str)
    }

    /// Total cookie count.
    pub fn len(&self) -> usize {
        self.store.values().map(Vec::len).sum()
    }

    /// True when the jar holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Domains of third-party (tracker) cookies — what a donating user
    /// shares for tracker-correlation analysis (§2.2 req. 2).
    pub fn third_party_domains(&self) -> Vec<&str> {
        self.store
            .iter()
            .filter(|(_, cs)| cs.iter().any(|c| c.third_party))
            .map(|(d, _)| d.as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(name: &str, value: &str) -> Cookie {
        Cookie {
            name: name.into(),
            value: value.into(),
            third_party: false,
        }
    }

    #[test]
    fn set_get_roundtrip() {
        let mut jar = CookieJar::new();
        jar.set("shop.com", c("session", "abc"));
        assert_eq!(jar.value("shop.com", "session"), Some("abc"));
        assert_eq!(jar.value("shop.com", "other"), None);
        assert_eq!(jar.value("other.com", "session"), None);
    }

    #[test]
    fn set_replaces_same_name() {
        let mut jar = CookieJar::new();
        jar.set("shop.com", c("session", "abc"));
        jar.set("shop.com", c("session", "def"));
        assert_eq!(jar.len(), 1);
        assert_eq!(jar.value("shop.com", "session"), Some("def"));
    }

    #[test]
    fn clear_domain_removes_all() {
        let mut jar = CookieJar::new();
        jar.set("shop.com", c("a", "1"));
        jar.set("shop.com", c("b", "2"));
        jar.set("keep.com", c("c", "3"));
        assert_eq!(jar.clear_domain("shop.com"), 2);
        assert!(jar.get("shop.com").is_empty());
        assert_eq!(jar.len(), 1);
    }

    #[test]
    fn third_party_domains_reported() {
        let mut jar = CookieJar::new();
        jar.set("shop.com", c("session", "x"));
        jar.set(
            "tracker.example",
            Cookie {
                name: "uid".into(),
                value: "42".into(),
                third_party: true,
            },
        );
        assert_eq!(jar.third_party_domains(), vec!["tracker.example"]);
    }

    #[test]
    fn set_returns_what_it_replaced() {
        let mut jar = CookieJar::new();
        jar.set("shop.com", c("a", "1"));
        assert_eq!(jar.set("shop.com", c("b", "2")), None);
        assert_eq!(jar.set("shop.com", c("a", "3")), Some(c("a", "1")));
        let names: Vec<&str> = jar
            .get("shop.com")
            .iter()
            .map(|k| k.name.as_str())
            .collect();
        assert_eq!(names, vec!["a", "b"], "a replaced cookie keeps its place");
    }

    #[test]
    fn remove_drops_an_emptied_domain() {
        let mut jar = CookieJar::new();
        jar.set("shop.com", c("a", "1"));
        jar.set("shop.com", c("b", "2"));
        jar.set("keep.com", c("c", "3"));
        let before = jar.clone();
        assert_eq!(jar.remove("shop.com", "x"), None);
        assert_eq!(jar.remove("none.com", "a"), None);
        assert_eq!(jar, before);
        assert_eq!(jar.remove("shop.com", "a"), Some(c("a", "1")));
        assert_eq!(jar.remove("shop.com", "b"), Some(c("b", "2")));
        assert_eq!(jar.domains().collect::<Vec<_>>(), vec!["keep.com"]);
        let mut only_keep = CookieJar::new();
        only_keep.set("keep.com", c("c", "3"));
        assert_eq!(jar, only_keep, "no domain maps to an empty list");
    }

    #[test]
    fn deterministic_domain_order() {
        let mut jar = CookieJar::new();
        jar.set("z.com", c("a", "1"));
        jar.set("a.com", c("a", "1"));
        let domains: Vec<&str> = jar.domains().collect();
        assert_eq!(domains, vec!["a.com", "z.com"]);
    }
}
