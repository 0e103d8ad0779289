//! The counter-registry macro every layer declares its statistics with.
//!
//! Counters are declared exactly once, through
//! [`counter_registry!`](crate::counter_registry): each declaration carries
//! its field name and help text (the doc comment), and the macro expands to
//! the atomic registry struct, the plain-`u64` snapshot struct (with
//! `get`/`iter`/`delta`/`export_json`/`export_text`) and a [`CounterDef`]
//! metadata table — all guaranteed to agree on field set and order.
//!
//! The macro lives in this crate because it is the bottom of the dependency
//! graph: the sockets backend declares its own counters with it
//! ([`crate::sock::SockStats`]), and `photon-core` re-exports it (and
//! [`CounterDef`]) so the `core`, `msg`, `ds` and `runtime` call sites keep
//! writing `photon_core::counter_registry!`.

/// Metadata for one declared counter: its registry name and help text.
/// Generated tables hold one entry per field, in declaration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterDef {
    /// Field/registry name, e.g. `puts_eager`.
    pub name: &'static str,
    /// Help text (the declaration's doc comment).
    pub help: &'static str,
}

/// Declare a counter registry: an atomic counter struct, a `Copy` snapshot
/// struct, and a metadata table, generated from one field list.
///
/// ```ignore
/// photon_core::counter_registry! {
///     /// Internal counters for one widget.
///     registry WidgetStats;
///     /// A point-in-time copy of a widget's statistics.
///     snapshot WidgetSnapshot;
///     table WIDGET_COUNTERS;
///     counters {
///         /// Frobnications performed.
///         frobs,
///         /// Bytes frobnicated.
///         bytes_frobbed,
///     }
/// }
/// ```
///
/// The doc comment on each counter doubles as its help text in the
/// generated table and in `export_text` output. Snapshot structs derive
/// `Debug, Clone, Copy, PartialEq, Eq, Default` with fields in declaration
/// order, so existing `{:?}` output (and anything hashing it) is preserved
/// when a hand-written pair is migrated field-for-field.
#[macro_export]
macro_rules! counter_registry {
    (
        $(#[doc = $rdoc:literal])+
        registry $reg:ident;
        $(#[doc = $sdoc:literal])+
        snapshot $snap:ident;
        table $table:ident;
        counters {
            $( $(#[doc = $help:literal])+ $field:ident, )+
        }
    ) => {
        $(#[doc = $rdoc])+
        #[derive(Debug, Default)]
        pub struct $reg {
            $( pub(crate) $field: ::std::sync::atomic::AtomicU64, )+
        }

        impl $reg {
            /// Increment `counter` by one (relaxed).
            #[inline]
            #[allow(dead_code)]
            pub(crate) fn bump(counter: &::std::sync::atomic::AtomicU64) {
                counter.fetch_add(1, ::std::sync::atomic::Ordering::Relaxed);
            }

            /// Add `v` to `counter` (relaxed).
            #[inline]
            #[allow(dead_code)]
            pub(crate) fn add(counter: &::std::sync::atomic::AtomicU64, v: u64) {
                counter.fetch_add(v, ::std::sync::atomic::Ordering::Relaxed);
            }

            /// Add `v` to the counter named `name` (as listed in the
            #[doc = concat!("[`", stringify!($table), "`] table); returns `false` for unknown names.")]
            #[allow(dead_code)]
            pub fn add_named(&self, name: &str, v: u64) -> bool {
                match name {
                    $(
                        stringify!($field) => {
                            self.$field.fetch_add(v, ::std::sync::atomic::Ordering::Relaxed);
                            true
                        }
                    )+
                    _ => false,
                }
            }

            /// Snapshot the counters.
            pub fn snapshot(&self) -> $snap {
                $snap {
                    $( $field: self.$field.load(::std::sync::atomic::Ordering::Relaxed), )+
                }
            }
        }

        $(#[doc = $sdoc])+
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct $snap {
            $( $(#[doc = $help])+ pub $field: u64, )+
        }

        #[doc = concat!(
            "Declared counter metadata for [`", stringify!($snap),
            "`], in field-declaration order."
        )]
        pub const $table: &[$crate::counters::CounterDef] = &[
            $(
                $crate::counters::CounterDef {
                    name: stringify!($field),
                    help: concat!($($help),+),
                },
            )+
        ];

        impl $snap {
            /// Iterate `(name, value)` pairs in declaration order.
            pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
                [$( (stringify!($field), self.$field) ),+].into_iter()
            }

            /// Value of the counter named `name`; `None` for unknown names.
            pub fn get(&self, name: &str) -> Option<u64> {
                match name {
                    $( stringify!($field) => Some(self.$field), )+
                    _ => None,
                }
            }

            /// Counter-wise difference `self - earlier` (saturating, so a
            /// stale "earlier" snapshot cannot wrap).
            pub fn delta(&self, earlier: &$snap) -> $snap {
                $snap {
                    $( $field: self.$field.saturating_sub(earlier.$field), )+
                }
            }

            /// Render as a single-line JSON object, counters in declaration
            /// order. Hand-rolled: the workspace carries no serde.
            pub fn export_json(&self) -> String {
                let mut out = String::from("{");
                let mut first = true;
                for (name, v) in self.iter() {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    out.push('"');
                    out.push_str(name);
                    out.push_str("\":");
                    out.push_str(&v.to_string());
                }
                out.push('}');
                out
            }

            /// Render as text exposition: a `# HELP` line (from the
            /// declaration's doc comment) followed by `name value`, per
            /// counter, in declaration order.
            pub fn export_text(&self) -> String {
                let mut out = String::new();
                for (def, (name, v)) in $table.iter().zip(self.iter()) {
                    out.push_str("# HELP ");
                    out.push_str(def.name);
                    out.push(' ');
                    out.push_str(def.help.trim());
                    out.push('\n');
                    out.push_str(name);
                    out.push(' ');
                    out.push_str(&v.to_string());
                    out.push('\n');
                }
                out
            }
        }
    };
}
