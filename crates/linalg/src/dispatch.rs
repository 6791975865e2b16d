//! Run-time choice between the portable and the AVX2 compilation of the
//! design-time kernels (the band sweeps and the dense products).
//!
//! [`dual_compile!`] takes one kernel body and emits it twice: once for
//! the crate's baseline target and once under
//! `#[target_feature(enable = "avx2")]`, plus a dispatcher that picks the
//! AVX2 copy when the CPU reports it. `fma` is deliberately not enabled
//! (and Rust never contracts `a * b + c` on its own), so both copies run
//! the same IEEE multiplies and adds in the same order for every output
//! element; only the vector width differs, and the two give the same
//! bits. Helpers a body calls must be `#[inline(always)]` to be compiled
//! into each copy.

/// Whether the dispatched kernels run their AVX2 copy: detected once per
/// process.
#[cfg(target_arch = "x86_64")]
pub(crate) fn avx2() -> bool {
    static AVX2: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

/// `fn name / portable / avx2 (args) -> ret { body }` emits `portable` and
/// (on x86-64) `avx2` from the one body, and `name`, which calls the AVX2
/// copy when [`avx2`] holds and the portable one otherwise. Tests call
/// both copies directly, so a host without AVX2 still runs the portable
/// one and a host with it checks both.
macro_rules! dual_compile {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident / $portable:ident / $avx2:ident
            ($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? $body:block
    ) => {
        fn $portable($($arg: $ty),*) $(-> $ret)? $body

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        unsafe fn $avx2($($arg: $ty),*) $(-> $ret)? $body

        $(#[$attr])*
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            if $crate::dispatch::avx2() {
                // SAFETY: the CPU reports AVX2.
                return unsafe { $avx2($($arg),*) };
            }
            $portable($($arg),*)
        }
    };
}

pub(crate) use dual_compile;
