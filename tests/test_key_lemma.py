from chooselab.key_lemma import verify_case, verify_p2_overlap_table


def test_p2_overlap_table():
    rows = verify_p2_overlap_table()
    assert len(rows) == 8
    for row in rows:
        # colorable exactly when the union reaches 8 colors, and the
        # two disjoint unit sets exist exactly for those classes
        assert row["colorable"] == (row["union"] >= 8)
        assert row["psi_found"] == row["colorable"]
    assert not rows[7]["colorable"]     # identical lists: pigeonhole


def test_p2_exhaustive():
    r = verify_case("P2")
    assert r.classes_total == 8
    assert r.classes_colorable == 7
    assert r.ok and not r.sampled


def test_p3_exhaustive():
    r = verify_case("P3")
    assert r.ok and not r.sampled
    assert r.classes_total > 100
    assert 0 < r.classes_colorable < r.classes_total
