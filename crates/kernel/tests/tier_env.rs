//! `SKELCL_KERNEL_TIER` rejects the names of removed tiers with the same
//! typed error `Tier::parse` reports. The only test in its binary, so setting
//! the process environment races with no other test.

use skelcl_kernel::{Program, Tier};

const SRC: &str = "__kernel void k(__global float* v, int n) { v[0] = 1.0f; }";

#[test]
fn removed_tier_names_in_the_environment_are_rejected() {
    for name in ["batched", "vm"] {
        std::env::set_var("SKELCL_KERNEL_TIER", name);
        let err = Program::build(SRC).unwrap_err();
        assert_eq!(
            err.message,
            format!(
                "SKELCL_KERNEL_TIER: unknown kernel tier `{name}`: \
                 expected one of interp, scalar, native, auto"
            )
        );
    }
    std::env::set_var("SKELCL_KERNEL_TIER", "native");
    assert_eq!(Program::build(SRC).unwrap().tier(), Tier::Native);
    std::env::remove_var("SKELCL_KERNEL_TIER");
    assert_eq!(Program::build(SRC).unwrap().tier(), Tier::Auto);
}
