"""Table 2: default and maximum isolation levels of 18 ACID/NewSQL databases."""

from repro.taxonomy.survey import format_table_2, survey_statistics


def test_table2_isolation_survey(bench_print):
    stats = survey_statistics()

    body = format_table_2() + "\n\n" + "\n".join([
        f"databases surveyed:                    {stats.total}",
        f"serializable by default:               {stats.serializable_by_default}",
        f"no serializability option at all:      {stats.no_serializability_option}",
        f"default level achievable as a HAT:     {stats.default_hat_achievable}",
    ])
    bench_print("Table 2: isolation levels in the wild", body)

    # The paper's headline numbers (Section 3).
    assert stats.total == 18
    assert stats.serializable_by_default == 3
    assert stats.no_serializability_option == 8
