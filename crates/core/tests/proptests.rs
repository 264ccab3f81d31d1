//! Property-based invariants of the onServe middleware layer.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;

use blobstore::ParamSpec;
use onserve::deployment::{synth_payload, Deployment, DeploymentSpec};
use onserve::generator::{generate, service_name_for};
use onserve::params::{param_type_from_name, validate_args};
use onserve::profile::ExecutionProfile;
use proptest::prelude::*;
use simkit::{Duration, Rng, Sim};
use wsstack::SoapValue;

/// The generator `synth_payload` replaced, kept verbatim as the reference:
/// one `format!` per 31-byte segment.
fn synth_payload_reference(len: usize, seed: u64) -> Vec<u8> {
    let mut data = Vec::with_capacity(len);
    let mut x = seed | 1;
    while data.len() < len {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let chunk = format!("SEG{:08x}:PAYLOAD-DATA-BLOCK;", x >> 40);
        data.extend_from_slice(chunk.as_bytes());
    }
    data.truncate(len);
    data
}

/// Every cut point through the first six segments, and the sizes the
/// benches upload (the 64 KB blob, one byte past it, the 5 MB executable),
/// under the seed every caller derives and under extreme ones.
#[test]
fn synth_payload_equals_the_format_reference_at_fixed_sizes() {
    for len in (0..=200).chain([1024, 65_536, 65_537, 5 * 1024 * 1024]) {
        for seed in [0x5eed ^ len as u64, 0, u64::MAX, 0xffff_ff00_0000_0000] {
            assert!(
                synth_payload(len, seed)[..] == synth_payload_reference(len, seed)[..],
                "len {len} seed {seed:#x}"
            );
        }
    }
}

proptest! {
    /// Derived service names are always valid identifiers: non-empty,
    /// ASCII-alphanumeric/underscore, non-digit first char.
    #[test]
    fn service_names_are_identifiers(file in "\\PC{0,40}") {
        let name = service_name_for(&file);
        prop_assert!(!name.is_empty());
        prop_assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
        prop_assert!(!name.chars().next().unwrap().is_ascii_digit());
    }

    /// Generation succeeds exactly when every declared type is known, and
    /// the WSDL's operation mirrors the declaration order.
    #[test]
    fn generation_mirrors_declarations(
        types in proptest::collection::vec(
            proptest::string::string_regex("(string|int|double|boolean|base64|bogus)").expect("regex"),
            0..6,
        ),
    ) {
        let params: Vec<ParamSpec> = types
            .iter()
            .enumerate()
            .map(|(i, t)| ParamSpec::new(&format!("p{i}"), t))
            .collect();
        let rec = blobstore::ExecutableRecord {
            id: 1,
            name: "tool.exe".into(),
            description: String::new(),
            params: params.clone(),
            original_len: 10,
            stored_len: 10,
            checksum: 0,
        };
        let result = generate(&rec, "appliance");
        let all_known = types.iter().all(|t| param_type_from_name(t).is_some());
        prop_assert_eq!(result.is_ok(), all_known);
        if let Ok(g) = result {
            let op = g.wsdl.operation("execute").unwrap();
            let names: Vec<&str> = op.inputs.iter().map(|p| p.name.as_str()).collect();
            let expect: Vec<String> = (0..types.len()).map(|i| format!("p{i}")).collect();
            prop_assert_eq!(names, expect.iter().map(String::as_str).collect::<Vec<_>>());
        }
    }

    /// Argument validation accepts exactly the declared shape and renders
    /// one string per declared parameter, in declaration order.
    #[test]
    fn validate_args_shape(n_args in 0usize..5, extra in any::<bool>()) {
        let specs: Vec<ParamSpec> =
            (0..n_args).map(|i| ParamSpec::new(&format!("a{i}"), "int")).collect();
        let mut args: BTreeMap<String, SoapValue> = (0..n_args)
            .map(|i| (format!("a{i}"), SoapValue::Int(i as i64)))
            .collect();
        if extra {
            args.insert("zz_extra".into(), SoapValue::Int(0));
        }
        let r = validate_args(&specs, &args);
        if extra {
            prop_assert!(r.is_err());
        } else {
            let rendered = r.unwrap();
            let expect: Vec<String> = (0..n_args).map(|i| i.to_string()).collect();
            prop_assert_eq!(rendered, expect);
        }
    }

    /// Profile sampling respects the jitter band and never produces a
    /// non-positive runtime.
    #[test]
    fn profile_sampling_banded(
        secs in 1u64..100_000,
        jitter in 0.0f64..0.9,
        seed in any::<u64>(),
    ) {
        let p = ExecutionProfile {
            runtime: Duration::from_secs(secs),
            runtime_jitter: jitter,
            cores: 1,
            output_bytes: 1.0,
            walltime_factor: 2.0,
        };
        let mut rng = Rng::new(seed);
        let m = p.sample(&mut rng);
        let r = m.actual_runtime.as_secs_f64();
        let base = secs as f64;
        prop_assert!(r > 0.0);
        prop_assert!(r >= base * (1.0 - jitter) - 1.0, "{} below band", r);
        prop_assert!(r <= base * (1.0 + jitter) + 1.0, "{} above band", r);
    }

    /// Synthetic payloads are deterministic in (len, seed) and exactly the
    /// requested length.
    #[test]
    fn synth_payload_deterministic(len in 0usize..100_000, seed in any::<u64>()) {
        let a = synth_payload(len, seed);
        let b = synth_payload(len, seed);
        prop_assert_eq!(a.len(), len);
        prop_assert_eq!(a, b);
    }

    /// The template-patching generator is the `format!` one, byte for
    /// byte — also from seeds whose top bits are all ones, where a digit
    /// wider than the template's six patched ones would first show.
    #[test]
    fn synth_payload_equals_the_format_reference(
        len in 0usize..100_000,
        seed in prop_oneof![
            any::<u64>(),
            any::<u64>().prop_map(|s| s | 0xffff_ff00_0000_0000),
        ],
    ) {
        prop_assert!(synth_payload(len, seed)[..] == synth_payload_reference(len, seed)[..]);
    }

    /// Randomized end-to-end: any quick profile publishes and invokes
    /// successfully, and the delivered output matches the profile.
    #[test]
    fn random_profiles_invoke_end_to_end(
        exe_kb in 1usize..256,
        runtime_s in 1u64..120,
        out_kb in 0u64..64,
        seed in 0u64..1000,
    ) {
        let mut sim = Sim::new(seed);
        let d = Deployment::build(&mut sim, &DeploymentSpec::default());
        let profile = ExecutionProfile::quick()
            .lasting(Duration::from_secs(runtime_s))
            .producing((out_kb * 1024) as f64);
        let req = d.upload_request("p.exe", exe_kb * 1024, profile, &[]);
        d.portal.upload(&mut sim, req, |_, r| { r.expect("publish"); });
        sim.run();
        let got = Rc::new(Cell::new(None));
        let g = got.clone();
        d.invoke(&mut sim, "p", &[], move |_, r| {
            if let Ok(SoapValue::Binary { bytes, .. }) = r {
                g.set(Some(bytes));
            }
        });
        sim.run();
        let bytes = got.get().expect("invocation must succeed");
        prop_assert!((bytes - (out_kb * 1024) as f64).abs() < 1.0);
    }
}
