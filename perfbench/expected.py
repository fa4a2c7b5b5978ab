"""What each workload must report, and the gate that compares a report to it.

``verify all`` has exit code 1 by design: criterion 6's three dirac sign
findings are standing failures (the bundled reference constants contradict
one another). They are pinned here to their exact witnesses, so a change
in either direction, a new failure or a silently "fixed" finding, counts as a
failed check. Every ``simulate`` record must pass, with exit code 0.
"""

from __future__ import annotations

WORKLOADS = {
    # name: (CLI arguments after the seed/trials/format options are added)
    "verify-all": ("verify", "all"),
    "simulate-h3": ("simulate", "h3"),
    "simulate-shor9": ("simulate", "shor9"),
}

EXPECTED_EXIT = {"verify-all": 1, "simulate-h3": 0, "simulate-shor9": 0}

_PASS, _FAIL = "pass", "fail"

# check_id -> (verdict, exact witness or None when the witness is not pinned)
VERIFY_ALL = {
    "quaternion/norm_multiplicative": (_PASS, None),
    "quaternion/mul_associative": (_PASS, None),
    "quaternion/rotation_geometry": (_PASS, None),
    "quaternion/su2_right_action_matrix": (_PASS, None),
    "quaternion/hopf_phase_invariance": (_PASS, None),
    "quaternion/hopf_equivariance": (_PASS, None),
    "quaternion/matrix_decompose_roundtrip": (_PASS, None),
    "quaternion/pauli_sandwich_classification": (_PASS, None),
    "linalg/isometry_preserves_inner": (_PASS, None),
    "linalg/site_application_matches_kron": (_PASS, None),
    "linalg/tensor_bilinearity": (_PASS, None),
    "linalg/orthonormal_completion": (_PASS, None),
    "codes/kl_r3_so2": (_PASS, None),
    "codes/kl_h3_su2": (_PASS, None),
    "codes/kl_complex3_phase_expected_fail": (_PASS, None),
    "codes/kl_shor9_pauli": (_PASS, None),
    "codes/correction_maps_isometric": (_PASS, None),
    "codes/combined_error_linearity": (_PASS, None),
    "codes/roundtrip_fidelity_r3": (_PASS, None),
    "codes/roundtrip_fidelity_h3": (_PASS, None),
    "codes/roundtrip_fidelity_shor9": (_PASS, None),
    "codes/effective_count_b3": (_PASS, None),
    "codes/deterministic_reports": (_PASS, None),
    "dirac/clifford_standard": (_PASS, None),
    "dirac/clifford_transformed": (_PASS, None),
    "dirac/majorana_transform_matrix": (_PASS, None),
    "dirac/majorana_basis_images": (
        _FAIL, "signs found vs reference: "
               "{'g0': -1, 'g1': -1, 'g2': 1, 'g3': -1, 'g5': -1}"),
    "dirac/generators_real": (_PASS, None),
    "dirac/generator_sign_patterns": (
        _FAIL, "signs found vs reference: {'g2g3': -1, 'g3g1': 1, 'g1g2': -1}"),
    "dirac/rotor_correspondence": (
        _FAIL, "unit signs found (reference -1 each): {'i': 1, 'j': -1, 'k': 1}"),
    "dirac/rotor_isometry": (_PASS, None),
}

SIMULATE = {
    "kl": (_PASS, None),
    "synthesis_isometric": (_PASS, None),
    "roundtrip_min_fidelity": (_PASS, None),
    "max_factorization_residual": (_PASS, None),
}

EXPECTED_CHECKS = {
    "verify-all": VERIFY_ALL,
    "simulate-h3": SIMULATE,
    "simulate-shor9": SIMULATE,
}


def expected_counts(workload: str, trials: int) -> dict[str, int]:
    """Work counts the traced run must repeat exactly; a mismatch means the
    workload changed, not that the run was noisy.

    - ``codes.kl_table_entries``: entries of the KL tables behind the report's
      correctability records ((errors x codewords)^2; KL checks made inside
      synthesis are not counted).
    - ``codes.effective_errors_in`` / ``codes.effective_errors``: the
      degenerate reduction, 28 single-site Paulis to 22 distinct actions.
    - ``codes.correction_map_bytes``: operator plus domain and image arrays
      of every correction map the workload builds.
    - ``linalg.completion_dim``: vectors returned by orthonormal completion.
    - ``codes.roundtrips``: calls of ``codes.roundtrip``.
    """
    if workload == "simulate-h3":
        return {"codes.kl_table_entries": 400,
                "codes.effective_errors_in": 0,
                "codes.effective_errors": 0,
                "codes.correction_map_bytes": 8_716_288,
                "linalg.completion_dim": 2 * 1024,
                "codes.roundtrips": trials}
    if workload == "simulate-shor9":
        return {"codes.kl_table_entries": 3136,
                "codes.effective_errors_in": 28,
                "codes.effective_errors": 22,
                "codes.correction_map_bytes": 23_068_672,
                "linalg.completion_dim": 0,
                "codes.roundtrips": trials}
    if workload == "verify-all":
        # KL: r3 64 + h3 (two units) 2 x 400 + complex3 16 + shor9 3136.
        # Completion: r3 2 x 32 + h3 2 x 1024 + the linalg suite's 4 + 4 + 16.
        # Roundtrips: 2 x trials (linearity) + r3, h3 and shor9 trials each
        # + 2 x 16 for the determinism fingerprint.
        return {"codes.kl_table_entries": 64 + 800 + 16 + 3136,
                "codes.effective_errors_in": 28,
                "codes.effective_errors": 22,
                "codes.correction_map_bytes": 12_288 + 8_716_288 + 23_068_672,
                "linalg.completion_dim": 64 + 2048 + 24,
                "codes.roundtrips": 5 * trials + 32}
    raise KeyError(workload)


def gate_report(workload: str, report: dict, exit_code: int,
                seed: int, trials: int) -> list[str]:
    """Compare one structured CLI report with the expected table and return
    one message per problem: a check whose verdict or pinned witness differs
    or that is missing, and any run-level mismatch (exit code, seed, trials,
    unexpected checks). An empty list means the report is as expected."""
    expected = EXPECTED_CHECKS[workload]
    problems: list[str] = []
    if exit_code != EXPECTED_EXIT[workload]:
        problems.append(f"exit code {exit_code}, expected {EXPECTED_EXIT[workload]}")
    if report.get("seed") != seed:
        problems.append(f"report seed {report.get('seed')!r}, expected {seed}")
    if report.get("trials") != trials:
        problems.append(f"report trials {report.get('trials')!r}, expected {trials}")
    found = {c["check_id"]: c for c in report.get("checks", [])}
    extra = sorted(set(found) - set(expected))
    if extra:
        problems.append(f"unexpected checks {extra}")
    for check_id, (verdict, witness) in expected.items():
        rec = found.get(check_id)
        if rec is None:
            problems.append(f"{check_id}: missing")
        elif rec["verdict"] != verdict:
            problems.append(f"{check_id}: verdict {rec['verdict']}, expected {verdict}")
        elif witness is not None and rec["witness"] != witness:
            problems.append(f"{check_id}: witness {rec['witness']!r}, "
                            f"expected {witness!r}")
    return problems
