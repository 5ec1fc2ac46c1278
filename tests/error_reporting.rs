//! Error types across the workspace: `Display` output is part of the
//! public contract (operators read these), and every error must be
//! `std::error::Error + Send + Sync` so callers can box them.

use fbp_feedback::FeedbackError;
use fbp_geometry::GeometryError;
use fbp_linalg::LinalgError;
use fbp_simplex_tree::TreeError;
use fbp_vecdb::VecdbError;
use feedbackbypass::BypassError;

fn assert_error<E: std::error::Error + Send + Sync + 'static>(e: E, needle: &str) {
    let msg = e.to_string();
    assert!(
        msg.contains(needle),
        "display {msg:?} should mention {needle:?}"
    );
    // Boxing as a dyn error must work (the Send + Sync bound).
    let boxed: Box<dyn std::error::Error + Send + Sync> = Box::new(e);
    assert!(!boxed.to_string().is_empty());
}

#[test]
fn linalg_errors_display() {
    assert_error(LinalgError::Singular { step: 3 }, "singular");
    assert_error(
        LinalgError::ShapeMismatch {
            expected: (2, 2),
            got: (2, 3),
        },
        "2x3",
    );
}

#[test]
fn geometry_errors_display() {
    assert_error(GeometryError::DegenerateSimplex, "degenerate");
    assert_error(
        GeometryError::DimensionMismatch {
            expected: 4,
            got: 3,
        },
        "expected 4",
    );
}

#[test]
fn tree_errors_display() {
    assert_error(TreeError::OutOfDomain { min_coord: -0.25 }, "outside");
    assert_error(
        TreeError::DimMismatch {
            expected: 31,
            got: 32,
        },
        "31",
    );
    assert_error(TreeError::Corrupt("checksum".into()), "checksum");
}

#[test]
fn vecdb_errors_display() {
    assert_error(
        VecdbError::DimMismatch {
            expected: 32,
            got: 16,
        },
        "32",
    );
    assert_error(VecdbError::BadParameters("weights".into()), "weights");
    assert_error(VecdbError::EmptyCollection, "empty");
}

#[test]
fn feedback_errors_display() {
    assert_error(FeedbackError::NoPositiveExamples, "positive");
    assert_error(
        FeedbackError::DimMismatch {
            expected: 2,
            got: 1,
        },
        "expected 2",
    );
    assert_error(
        FeedbackError::BadConfig("sigma_floor".into()),
        "sigma_floor",
    );
}

#[test]
fn bypass_errors_display_and_wrap() {
    assert_error(BypassError::BadQuery("not normalized".into()), "normalized");
    // From-conversions preserve the inner message.
    let tree_err: BypassError = TreeError::Corrupt("bad magic".into()).into();
    assert_error(tree_err, "bad magic");
    let fb_err: BypassError = FeedbackError::NoPositiveExamples.into();
    assert_error(fb_err, "positive");
}
