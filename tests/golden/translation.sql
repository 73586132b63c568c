-- analytical 1: select mx: max am1, av: avg bm4 by agrp from ej[`k; ej[`k; w1; w2]; w3] where bm2 < 159.0
-- null_rewrites=2 columns_pruned=5004 sorts_elided=2
SELECT "agrp", max("am1") AS "mx", avg("bm4") AS "av" FROM (SELECT "agrp", "am1", "bm2", "bm4" FROM (SELECT "k", "agrp", "am1", "hq_r_bm2" AS "bm2", "hq_r_bm4" AS "bm4" FROM (SELECT "k", "agrp", "am1" FROM "w1") AS hq_sub1 INNER JOIN (SELECT "k" AS "hq_r_k", "bm2" AS "hq_r_bm2", "bm4" AS "hq_r_bm4" FROM "w2") AS hq_sub2 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub3 INNER JOIN (SELECT "k" AS "hq_r_k" FROM "w3") AS hq_sub4 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub5 WHERE coalesce((("bm2" < 159.0) OR (("bm2" IS NULL) AND (159.0 IS NOT NULL))), FALSE) GROUP BY "agrp" ORDER BY "agrp" ASC

-- analytical 2: select sd: dev am2, vr: var bm5, md: med cm7 by agrp from ej[`k; ej[`k; w1; w2]; w3] where agrp in `g0`g1`g2
-- null_rewrites=2 columns_pruned=5005 sorts_elided=2
SELECT "agrp", stddev_pop("am2") AS "sd", var_pop("bm5") AS "vr", median("cm7") AS "md" FROM (SELECT "agrp", "am2", "bm5", "hq_r_cm7" AS "cm7" FROM (SELECT "k", "agrp", "am2", "hq_r_bm5" AS "bm5" FROM (SELECT "k", "agrp", "am2" FROM "w1") AS hq_sub1 INNER JOIN (SELECT "k" AS "hq_r_k", "bm5" AS "hq_r_bm5" FROM "w2") AS hq_sub2 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub3 INNER JOIN (SELECT "k" AS "hq_r_k", "cm7" AS "hq_r_cm7" FROM "w3") AS hq_sub4 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub5 WHERE ("agrp" IN ('g0'::varchar, 'g1'::varchar, 'g2'::varchar)) GROUP BY "agrp" ORDER BY "agrp" ASC

-- analytical 3: select spread: (max am3) - min am3, ratio: (sum bm6) % sum cm8 by agrp from ej[`k; ej[`k; w1; w2]; w3] where bm4 > 356.0
-- null_rewrites=2 columns_pruned=5001 sorts_elided=2
SELECT "agrp", (max("am3") - min("am3")) AS "spread", (coalesce(sum("bm6"), 0.0) / coalesce(sum("cm8"), 0.0)) AS "ratio" FROM (SELECT "agrp", "am3", "bm4", "bm6", "hq_r_cm8" AS "cm8" FROM (SELECT "k", "agrp", "am3", "hq_r_bm4" AS "bm4", "hq_r_bm6" AS "bm6" FROM (SELECT "k", "agrp", "am3" FROM "w1") AS hq_sub1 INNER JOIN (SELECT "k" AS "hq_r_k", "bm4" AS "hq_r_bm4", "bm6" AS "hq_r_bm6" FROM "w2") AS hq_sub2 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub3 INNER JOIN (SELECT "k" AS "hq_r_k", "cm8" AS "hq_r_cm8" FROM "w3") AS hq_sub4 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub5 WHERE coalesce((("bm4" > 356.0) OR ((356.0 IS NULL) AND ("bm4" IS NOT NULL))), FALSE) GROUP BY "agrp" ORDER BY "agrp" ASC

-- analytical 4: select av: avg am4, s: sum bm7, n: count i from ej[`k; ej[`k; w1; w2]; w3] where bm5 > 50.0, cm9 < 950.0, agrp in `g0`g1`g2`g3
-- null_rewrites=2 columns_pruned=5001 sorts_elided=2
SELECT (1)::integer AS "ordcol", "av", "s", "n" FROM (SELECT avg("am4") AS "av", coalesce(sum("bm7"), 0.0) AS "s", count(*) AS "n" FROM (SELECT "agrp", "am4", "bm5", "bm7", "hq_r_cm9" AS "cm9" FROM (SELECT "k", "agrp", "am4", "hq_r_bm5" AS "bm5", "hq_r_bm7" AS "bm7" FROM (SELECT "k", "agrp", "am4" FROM "w1") AS hq_sub1 INNER JOIN (SELECT "k" AS "hq_r_k", "bm5" AS "hq_r_bm5", "bm7" AS "hq_r_bm7" FROM "w2") AS hq_sub2 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub3 INNER JOIN (SELECT "k" AS "hq_r_k", "cm9" AS "hq_r_cm9" FROM "w3") AS hq_sub4 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub5 WHERE coalesce((("bm5" > 50.0) OR ((50.0 IS NULL) AND ("bm5" IS NOT NULL))), FALSE) AND coalesce((("cm9" < 950.0) OR (("cm9" IS NULL) AND (950.0 IS NOT NULL))), FALSE) AND ("agrp" IN ('g0'::varchar, 'g1'::varchar, 'g2'::varchar, 'g3'::varchar))) AS hq_sub6 ORDER BY "ordcol" ASC

-- analytical 5: select mx: max am5, mn: min bm8, s: sum cm10, n: count i from ej[`k; ej[`k; w1; w2]; w3] where bm6 > 678.0
-- null_rewrites=2 columns_pruned=5004 sorts_elided=2
SELECT (1)::integer AS "ordcol", "mx", "mn", "s", "n" FROM (SELECT max("am5") AS "mx", min("bm8") AS "mn", coalesce(sum("cm10"), 0.0) AS "s", count(*) AS "n" FROM (SELECT "am5", "bm6", "bm8", "hq_r_cm10" AS "cm10" FROM (SELECT "k", "am5", "hq_r_bm6" AS "bm6", "hq_r_bm8" AS "bm8" FROM (SELECT "k", "am5" FROM "w1") AS hq_sub1 INNER JOIN (SELECT "k" AS "hq_r_k", "bm6" AS "hq_r_bm6", "bm8" AS "hq_r_bm8" FROM "w2") AS hq_sub2 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub3 INNER JOIN (SELECT "k" AS "hq_r_k", "cm10" AS "hq_r_cm10" FROM "w3") AS hq_sub4 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub5 WHERE coalesce((("bm6" > 678.0) OR ((678.0 IS NULL) AND ("bm6" IS NOT NULL))), FALSE)) AS hq_sub6 ORDER BY "ordcol" ASC

-- analytical 6: select mx: max am6, av: avg bm9 by agrp from ej[`k; ej[`k; w1; w2]; w3] where bm7 < 139.0
-- null_rewrites=2 columns_pruned=5004 sorts_elided=2
SELECT "agrp", max("am6") AS "mx", avg("bm9") AS "av" FROM (SELECT "agrp", "am6", "bm7", "bm9" FROM (SELECT "k", "agrp", "am6", "hq_r_bm7" AS "bm7", "hq_r_bm9" AS "bm9" FROM (SELECT "k", "agrp", "am6" FROM "w1") AS hq_sub1 INNER JOIN (SELECT "k" AS "hq_r_k", "bm7" AS "hq_r_bm7", "bm9" AS "hq_r_bm9" FROM "w2") AS hq_sub2 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub3 INNER JOIN (SELECT "k" AS "hq_r_k" FROM "w3") AS hq_sub4 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub5 WHERE coalesce((("bm7" < 139.0) OR (("bm7" IS NULL) AND (139.0 IS NOT NULL))), FALSE) GROUP BY "agrp" ORDER BY "agrp" ASC

-- analytical 7: select sd: dev am7, vr: var bm10, md: med cm12 by agrp from ej[`k; ej[`k; w1; w2]; w3] where agrp in `g0`g1`g2
-- null_rewrites=2 columns_pruned=5005 sorts_elided=2
SELECT "agrp", stddev_pop("am7") AS "sd", var_pop("bm10") AS "vr", median("cm12") AS "md" FROM (SELECT "agrp", "am7", "bm10", "hq_r_cm12" AS "cm12" FROM (SELECT "k", "agrp", "am7", "hq_r_bm10" AS "bm10" FROM (SELECT "k", "agrp", "am7" FROM "w1") AS hq_sub1 INNER JOIN (SELECT "k" AS "hq_r_k", "bm10" AS "hq_r_bm10" FROM "w2") AS hq_sub2 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub3 INNER JOIN (SELECT "k" AS "hq_r_k", "cm12" AS "hq_r_cm12" FROM "w3") AS hq_sub4 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub5 WHERE ("agrp" IN ('g0'::varchar, 'g1'::varchar, 'g2'::varchar)) GROUP BY "agrp" ORDER BY "agrp" ASC

-- analytical 8: select spread: (max am8) - min am8, ratio: (sum bm11) % sum cm13 by agrp from ej[`k; ej[`k; w1; w2]; w3] where bm9 > 413.0
-- null_rewrites=2 columns_pruned=5001 sorts_elided=2
SELECT "agrp", (max("am8") - min("am8")) AS "spread", (coalesce(sum("bm11"), 0.0) / coalesce(sum("cm13"), 0.0)) AS "ratio" FROM (SELECT "agrp", "am8", "bm9", "bm11", "hq_r_cm13" AS "cm13" FROM (SELECT "k", "agrp", "am8", "hq_r_bm9" AS "bm9", "hq_r_bm11" AS "bm11" FROM (SELECT "k", "agrp", "am8" FROM "w1") AS hq_sub1 INNER JOIN (SELECT "k" AS "hq_r_k", "bm9" AS "hq_r_bm9", "bm11" AS "hq_r_bm11" FROM "w2") AS hq_sub2 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub3 INNER JOIN (SELECT "k" AS "hq_r_k", "cm13" AS "hq_r_cm13" FROM "w3") AS hq_sub4 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub5 WHERE coalesce((("bm9" > 413.0) OR ((413.0 IS NULL) AND ("bm9" IS NOT NULL))), FALSE) GROUP BY "agrp" ORDER BY "agrp" ASC

-- analytical 9: select av: avg am9, s: sum bm12, n: count i from ej[`k; ej[`k; w1; w2]; w3] where bm10 > 50.0, cm14 < 950.0, agrp in `g0`g1`g2`g3
-- null_rewrites=2 columns_pruned=5001 sorts_elided=2
SELECT (1)::integer AS "ordcol", "av", "s", "n" FROM (SELECT avg("am9") AS "av", coalesce(sum("bm12"), 0.0) AS "s", count(*) AS "n" FROM (SELECT "agrp", "am9", "bm10", "bm12", "hq_r_cm14" AS "cm14" FROM (SELECT "k", "agrp", "am9", "hq_r_bm10" AS "bm10", "hq_r_bm12" AS "bm12" FROM (SELECT "k", "agrp", "am9" FROM "w1") AS hq_sub1 INNER JOIN (SELECT "k" AS "hq_r_k", "bm10" AS "hq_r_bm10", "bm12" AS "hq_r_bm12" FROM "w2") AS hq_sub2 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub3 INNER JOIN (SELECT "k" AS "hq_r_k", "cm14" AS "hq_r_cm14" FROM "w3") AS hq_sub4 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub5 WHERE coalesce((("bm10" > 50.0) OR ((50.0 IS NULL) AND ("bm10" IS NOT NULL))), FALSE) AND coalesce((("cm14" < 950.0) OR (("cm14" IS NULL) AND (950.0 IS NOT NULL))), FALSE) AND ("agrp" IN ('g0'::varchar, 'g1'::varchar, 'g2'::varchar, 'g3'::varchar))) AS hq_sub6 ORDER BY "ordcol" ASC

-- analytical 10: select mx: max am10, mn: min bm13, s: sum cm15, n: count i from ej[`k; ej[`k; ej[`k; ej[`k; w1; w2]; w3]; w4]; w5] where bm11 > 171.0
-- null_rewrites=4 columns_pruned=11515 sorts_elided=4
SELECT (1)::integer AS "ordcol", "mx", "mn", "s", "n" FROM (SELECT max("am10") AS "mx", min("bm13") AS "mn", coalesce(sum("cm15"), 0.0) AS "s", count(*) AS "n" FROM (SELECT "am10", "bm11", "bm13", "cm15" FROM (SELECT "k", "am10", "bm11", "bm13", "cm15" FROM (SELECT "k", "am10", "bm11", "bm13", "hq_r_cm15" AS "cm15" FROM (SELECT "k", "am10", "hq_r_bm11" AS "bm11", "hq_r_bm13" AS "bm13" FROM (SELECT "k", "am10" FROM "w1") AS hq_sub1 INNER JOIN (SELECT "k" AS "hq_r_k", "bm11" AS "hq_r_bm11", "bm13" AS "hq_r_bm13" FROM "w2") AS hq_sub2 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub3 INNER JOIN (SELECT "k" AS "hq_r_k", "cm15" AS "hq_r_cm15" FROM "w3") AS hq_sub4 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub5 INNER JOIN (SELECT "k" AS "hq_r_k" FROM "w4") AS hq_sub6 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub7 INNER JOIN (SELECT "k" AS "hq_r_k" FROM "w5") AS hq_sub8 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub9 WHERE coalesce((("bm11" > 171.0) OR ((171.0 IS NULL) AND ("bm11" IS NOT NULL))), FALSE)) AS hq_sub10 ORDER BY "ordcol" ASC

-- analytical 11: select mx: max am11, av: avg bm14 by agrp from ej[`k; ej[`k; w1; w2]; w3] where bm12 < 599.0
-- null_rewrites=2 columns_pruned=5004 sorts_elided=2
SELECT "agrp", max("am11") AS "mx", avg("bm14") AS "av" FROM (SELECT "agrp", "am11", "bm12", "bm14" FROM (SELECT "k", "agrp", "am11", "hq_r_bm12" AS "bm12", "hq_r_bm14" AS "bm14" FROM (SELECT "k", "agrp", "am11" FROM "w1") AS hq_sub1 INNER JOIN (SELECT "k" AS "hq_r_k", "bm12" AS "hq_r_bm12", "bm14" AS "hq_r_bm14" FROM "w2") AS hq_sub2 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub3 INNER JOIN (SELECT "k" AS "hq_r_k" FROM "w3") AS hq_sub4 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub5 WHERE coalesce((("bm12" < 599.0) OR (("bm12" IS NULL) AND (599.0 IS NOT NULL))), FALSE) GROUP BY "agrp" ORDER BY "agrp" ASC

-- analytical 12: select sd: dev am12, vr: var bm15, md: med cm17 by agrp from ej[`k; ej[`k; w1; w2]; w3] where agrp in `g0`g1`g2
-- null_rewrites=2 columns_pruned=5005 sorts_elided=2
SELECT "agrp", stddev_pop("am12") AS "sd", var_pop("bm15") AS "vr", median("cm17") AS "md" FROM (SELECT "agrp", "am12", "bm15", "hq_r_cm17" AS "cm17" FROM (SELECT "k", "agrp", "am12", "hq_r_bm15" AS "bm15" FROM (SELECT "k", "agrp", "am12" FROM "w1") AS hq_sub1 INNER JOIN (SELECT "k" AS "hq_r_k", "bm15" AS "hq_r_bm15" FROM "w2") AS hq_sub2 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub3 INNER JOIN (SELECT "k" AS "hq_r_k", "cm17" AS "hq_r_cm17" FROM "w3") AS hq_sub4 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub5 WHERE ("agrp" IN ('g0'::varchar, 'g1'::varchar, 'g2'::varchar)) GROUP BY "agrp" ORDER BY "agrp" ASC

-- analytical 13: select spread: (max am13) - min am13, ratio: (sum bm16) % sum cm18 by agrp from ej[`k; ej[`k; w1; w2]; w3] where bm14 > 768.0
-- null_rewrites=2 columns_pruned=5001 sorts_elided=2
SELECT "agrp", (max("am13") - min("am13")) AS "spread", (coalesce(sum("bm16"), 0.0) / coalesce(sum("cm18"), 0.0)) AS "ratio" FROM (SELECT "agrp", "am13", "bm14", "bm16", "hq_r_cm18" AS "cm18" FROM (SELECT "k", "agrp", "am13", "hq_r_bm14" AS "bm14", "hq_r_bm16" AS "bm16" FROM (SELECT "k", "agrp", "am13" FROM "w1") AS hq_sub1 INNER JOIN (SELECT "k" AS "hq_r_k", "bm14" AS "hq_r_bm14", "bm16" AS "hq_r_bm16" FROM "w2") AS hq_sub2 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub3 INNER JOIN (SELECT "k" AS "hq_r_k", "cm18" AS "hq_r_cm18" FROM "w3") AS hq_sub4 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub5 WHERE coalesce((("bm14" > 768.0) OR ((768.0 IS NULL) AND ("bm14" IS NOT NULL))), FALSE) GROUP BY "agrp" ORDER BY "agrp" ASC

-- analytical 14: select av: avg am14, s: sum bm17, n: count i from ej[`k; ej[`k; w1; w2]; w3] where bm15 > 50.0, cm19 < 950.0, agrp in `g0`g1`g2`g3
-- null_rewrites=2 columns_pruned=5001 sorts_elided=2
SELECT (1)::integer AS "ordcol", "av", "s", "n" FROM (SELECT avg("am14") AS "av", coalesce(sum("bm17"), 0.0) AS "s", count(*) AS "n" FROM (SELECT "agrp", "am14", "bm15", "bm17", "hq_r_cm19" AS "cm19" FROM (SELECT "k", "agrp", "am14", "hq_r_bm15" AS "bm15", "hq_r_bm17" AS "bm17" FROM (SELECT "k", "agrp", "am14" FROM "w1") AS hq_sub1 INNER JOIN (SELECT "k" AS "hq_r_k", "bm15" AS "hq_r_bm15", "bm17" AS "hq_r_bm17" FROM "w2") AS hq_sub2 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub3 INNER JOIN (SELECT "k" AS "hq_r_k", "cm19" AS "hq_r_cm19" FROM "w3") AS hq_sub4 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub5 WHERE coalesce((("bm15" > 50.0) OR ((50.0 IS NULL) AND ("bm15" IS NOT NULL))), FALSE) AND coalesce((("cm19" < 950.0) OR (("cm19" IS NULL) AND (950.0 IS NOT NULL))), FALSE) AND ("agrp" IN ('g0'::varchar, 'g1'::varchar, 'g2'::varchar, 'g3'::varchar))) AS hq_sub6 ORDER BY "ordcol" ASC

-- analytical 15: select mx: max am15, mn: min bm18, s: sum cm20, n: count i from ej[`k; ej[`k; w1; w2]; w3] where bm16 > 181.0
-- null_rewrites=2 columns_pruned=5004 sorts_elided=2
SELECT (1)::integer AS "ordcol", "mx", "mn", "s", "n" FROM (SELECT max("am15") AS "mx", min("bm18") AS "mn", coalesce(sum("cm20"), 0.0) AS "s", count(*) AS "n" FROM (SELECT "am15", "bm16", "bm18", "hq_r_cm20" AS "cm20" FROM (SELECT "k", "am15", "hq_r_bm16" AS "bm16", "hq_r_bm18" AS "bm18" FROM (SELECT "k", "am15" FROM "w1") AS hq_sub1 INNER JOIN (SELECT "k" AS "hq_r_k", "bm16" AS "hq_r_bm16", "bm18" AS "hq_r_bm18" FROM "w2") AS hq_sub2 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub3 INNER JOIN (SELECT "k" AS "hq_r_k", "cm20" AS "hq_r_cm20" FROM "w3") AS hq_sub4 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub5 WHERE coalesce((("bm16" > 181.0) OR ((181.0 IS NULL) AND ("bm16" IS NOT NULL))), FALSE)) AS hq_sub6 ORDER BY "ordcol" ASC

-- analytical 16: select mx: max am16, av: avg bm19 by agrp from ej[`k; ej[`k; w1; w2]; w3] where bm17 < 547.0
-- null_rewrites=2 columns_pruned=5004 sorts_elided=2
SELECT "agrp", max("am16") AS "mx", avg("bm19") AS "av" FROM (SELECT "agrp", "am16", "bm17", "bm19" FROM (SELECT "k", "agrp", "am16", "hq_r_bm17" AS "bm17", "hq_r_bm19" AS "bm19" FROM (SELECT "k", "agrp", "am16" FROM "w1") AS hq_sub1 INNER JOIN (SELECT "k" AS "hq_r_k", "bm17" AS "hq_r_bm17", "bm19" AS "hq_r_bm19" FROM "w2") AS hq_sub2 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub3 INNER JOIN (SELECT "k" AS "hq_r_k" FROM "w3") AS hq_sub4 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub5 WHERE coalesce((("bm17" < 547.0) OR (("bm17" IS NULL) AND (547.0 IS NOT NULL))), FALSE) GROUP BY "agrp" ORDER BY "agrp" ASC

-- analytical 17: select sd: dev am17, vr: var bm20, md: med cm22 by agrp from ej[`k; ej[`k; w1; w2]; w3] where agrp in `g0`g1`g2
-- null_rewrites=2 columns_pruned=5005 sorts_elided=2
SELECT "agrp", stddev_pop("am17") AS "sd", var_pop("bm20") AS "vr", median("cm22") AS "md" FROM (SELECT "agrp", "am17", "bm20", "hq_r_cm22" AS "cm22" FROM (SELECT "k", "agrp", "am17", "hq_r_bm20" AS "bm20" FROM (SELECT "k", "agrp", "am17" FROM "w1") AS hq_sub1 INNER JOIN (SELECT "k" AS "hq_r_k", "bm20" AS "hq_r_bm20" FROM "w2") AS hq_sub2 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub3 INNER JOIN (SELECT "k" AS "hq_r_k", "cm22" AS "hq_r_cm22" FROM "w3") AS hq_sub4 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub5 WHERE ("agrp" IN ('g0'::varchar, 'g1'::varchar, 'g2'::varchar)) GROUP BY "agrp" ORDER BY "agrp" ASC

-- analytical 18: select spread: (max am18) - min am18, ratio: (sum bm21) % sum cm23 by agrp from ej[`k; ej[`k; ej[`k; ej[`k; w1; w2]; w3]; w4]; w5] where bm19 > 674.0
-- null_rewrites=4 columns_pruned=11510 sorts_elided=4
SELECT "agrp", (max("am18") - min("am18")) AS "spread", (coalesce(sum("bm21"), 0.0) / coalesce(sum("cm23"), 0.0)) AS "ratio" FROM (SELECT "agrp", "am18", "bm19", "bm21", "cm23" FROM (SELECT "k", "agrp", "am18", "bm19", "bm21", "cm23" FROM (SELECT "k", "agrp", "am18", "bm19", "bm21", "hq_r_cm23" AS "cm23" FROM (SELECT "k", "agrp", "am18", "hq_r_bm19" AS "bm19", "hq_r_bm21" AS "bm21" FROM (SELECT "k", "agrp", "am18" FROM "w1") AS hq_sub1 INNER JOIN (SELECT "k" AS "hq_r_k", "bm19" AS "hq_r_bm19", "bm21" AS "hq_r_bm21" FROM "w2") AS hq_sub2 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub3 INNER JOIN (SELECT "k" AS "hq_r_k", "cm23" AS "hq_r_cm23" FROM "w3") AS hq_sub4 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub5 INNER JOIN (SELECT "k" AS "hq_r_k" FROM "w4") AS hq_sub6 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub7 INNER JOIN (SELECT "k" AS "hq_r_k" FROM "w5") AS hq_sub8 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub9 WHERE coalesce((("bm19" > 674.0) OR ((674.0 IS NULL) AND ("bm19" IS NOT NULL))), FALSE) GROUP BY "agrp" ORDER BY "agrp" ASC

-- analytical 19: select av: avg am19, s: sum bm22, n: count i from ej[`k; ej[`k; ej[`k; ej[`k; w1; w2]; w3]; w4]; w5] where bm20 > 50.0, cm24 < 950.0, agrp in `g0`g1`g2`g3
-- null_rewrites=4 columns_pruned=11510 sorts_elided=4
SELECT (1)::integer AS "ordcol", "av", "s", "n" FROM (SELECT avg("am19") AS "av", coalesce(sum("bm22"), 0.0) AS "s", count(*) AS "n" FROM (SELECT "agrp", "am19", "bm20", "bm22", "cm24" FROM (SELECT "k", "agrp", "am19", "bm20", "bm22", "cm24" FROM (SELECT "k", "agrp", "am19", "bm20", "bm22", "hq_r_cm24" AS "cm24" FROM (SELECT "k", "agrp", "am19", "hq_r_bm20" AS "bm20", "hq_r_bm22" AS "bm22" FROM (SELECT "k", "agrp", "am19" FROM "w1") AS hq_sub1 INNER JOIN (SELECT "k" AS "hq_r_k", "bm20" AS "hq_r_bm20", "bm22" AS "hq_r_bm22" FROM "w2") AS hq_sub2 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub3 INNER JOIN (SELECT "k" AS "hq_r_k", "cm24" AS "hq_r_cm24" FROM "w3") AS hq_sub4 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub5 INNER JOIN (SELECT "k" AS "hq_r_k" FROM "w4") AS hq_sub6 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub7 INNER JOIN (SELECT "k" AS "hq_r_k" FROM "w5") AS hq_sub8 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub9 WHERE coalesce((("bm20" > 50.0) OR ((50.0 IS NULL) AND ("bm20" IS NOT NULL))), FALSE) AND coalesce((("cm24" < 950.0) OR (("cm24" IS NULL) AND (950.0 IS NOT NULL))), FALSE) AND ("agrp" IN ('g0'::varchar, 'g1'::varchar, 'g2'::varchar, 'g3'::varchar))) AS hq_sub10 ORDER BY "ordcol" ASC

-- analytical 20: select mx: max am20, mn: min bm23, s: sum cm25, n: count i from ej[`k; ej[`k; ej[`k; ej[`k; w1; w2]; w3]; w4]; w5] where bm21 > 757.0
-- null_rewrites=4 columns_pruned=11515 sorts_elided=4
SELECT (1)::integer AS "ordcol", "mx", "mn", "s", "n" FROM (SELECT max("am20") AS "mx", min("bm23") AS "mn", coalesce(sum("cm25"), 0.0) AS "s", count(*) AS "n" FROM (SELECT "am20", "bm21", "bm23", "cm25" FROM (SELECT "k", "am20", "bm21", "bm23", "cm25" FROM (SELECT "k", "am20", "bm21", "bm23", "hq_r_cm25" AS "cm25" FROM (SELECT "k", "am20", "hq_r_bm21" AS "bm21", "hq_r_bm23" AS "bm23" FROM (SELECT "k", "am20" FROM "w1") AS hq_sub1 INNER JOIN (SELECT "k" AS "hq_r_k", "bm21" AS "hq_r_bm21", "bm23" AS "hq_r_bm23" FROM "w2") AS hq_sub2 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub3 INNER JOIN (SELECT "k" AS "hq_r_k", "cm25" AS "hq_r_cm25" FROM "w3") AS hq_sub4 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub5 INNER JOIN (SELECT "k" AS "hq_r_k" FROM "w4") AS hq_sub6 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub7 INNER JOIN (SELECT "k" AS "hq_r_k" FROM "w5") AS hq_sub8 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub9 WHERE coalesce((("bm21" > 757.0) OR ((757.0 IS NULL) AND ("bm21" IS NOT NULL))), FALSE)) AS hq_sub10 ORDER BY "ordcol" ASC

-- analytical 21: select mx: max am21, av: avg bm24 by agrp from ej[`k; ej[`k; w1; w2]; w3] where bm22 < 448.0
-- null_rewrites=2 columns_pruned=5004 sorts_elided=2
SELECT "agrp", max("am21") AS "mx", avg("bm24") AS "av" FROM (SELECT "agrp", "am21", "bm22", "bm24" FROM (SELECT "k", "agrp", "am21", "hq_r_bm22" AS "bm22", "hq_r_bm24" AS "bm24" FROM (SELECT "k", "agrp", "am21" FROM "w1") AS hq_sub1 INNER JOIN (SELECT "k" AS "hq_r_k", "bm22" AS "hq_r_bm22", "bm24" AS "hq_r_bm24" FROM "w2") AS hq_sub2 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub3 INNER JOIN (SELECT "k" AS "hq_r_k" FROM "w3") AS hq_sub4 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub5 WHERE coalesce((("bm22" < 448.0) OR (("bm22" IS NULL) AND (448.0 IS NOT NULL))), FALSE) GROUP BY "agrp" ORDER BY "agrp" ASC

-- analytical 22: select sd: dev am22, vr: var bm25, md: med cm27 by agrp from ej[`k; ej[`k; w1; w2]; w3] where agrp in `g0`g1`g2
-- null_rewrites=2 columns_pruned=5005 sorts_elided=2
SELECT "agrp", stddev_pop("am22") AS "sd", var_pop("bm25") AS "vr", median("cm27") AS "md" FROM (SELECT "agrp", "am22", "bm25", "hq_r_cm27" AS "cm27" FROM (SELECT "k", "agrp", "am22", "hq_r_bm25" AS "bm25" FROM (SELECT "k", "agrp", "am22" FROM "w1") AS hq_sub1 INNER JOIN (SELECT "k" AS "hq_r_k", "bm25" AS "hq_r_bm25" FROM "w2") AS hq_sub2 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub3 INNER JOIN (SELECT "k" AS "hq_r_k", "cm27" AS "hq_r_cm27" FROM "w3") AS hq_sub4 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub5 WHERE ("agrp" IN ('g0'::varchar, 'g1'::varchar, 'g2'::varchar)) GROUP BY "agrp" ORDER BY "agrp" ASC

-- analytical 23: select spread: (max am23) - min am23, ratio: (sum bm26) % sum cm28 by agrp from ej[`k; ej[`k; w1; w2]; w3] where bm24 > 658.0
-- null_rewrites=2 columns_pruned=5001 sorts_elided=2
SELECT "agrp", (max("am23") - min("am23")) AS "spread", (coalesce(sum("bm26"), 0.0) / coalesce(sum("cm28"), 0.0)) AS "ratio" FROM (SELECT "agrp", "am23", "bm24", "bm26", "hq_r_cm28" AS "cm28" FROM (SELECT "k", "agrp", "am23", "hq_r_bm24" AS "bm24", "hq_r_bm26" AS "bm26" FROM (SELECT "k", "agrp", "am23" FROM "w1") AS hq_sub1 INNER JOIN (SELECT "k" AS "hq_r_k", "bm24" AS "hq_r_bm24", "bm26" AS "hq_r_bm26" FROM "w2") AS hq_sub2 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub3 INNER JOIN (SELECT "k" AS "hq_r_k", "cm28" AS "hq_r_cm28" FROM "w3") AS hq_sub4 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub5 WHERE coalesce((("bm24" > 658.0) OR ((658.0 IS NULL) AND ("bm24" IS NOT NULL))), FALSE) GROUP BY "agrp" ORDER BY "agrp" ASC

-- analytical 24: select av: avg am24, s: sum bm27, n: count i from ej[`k; ej[`k; w1; w2]; w3] where bm25 > 50.0, cm29 < 950.0, agrp in `g0`g1`g2`g3
-- null_rewrites=2 columns_pruned=5001 sorts_elided=2
SELECT (1)::integer AS "ordcol", "av", "s", "n" FROM (SELECT avg("am24") AS "av", coalesce(sum("bm27"), 0.0) AS "s", count(*) AS "n" FROM (SELECT "agrp", "am24", "bm25", "bm27", "hq_r_cm29" AS "cm29" FROM (SELECT "k", "agrp", "am24", "hq_r_bm25" AS "bm25", "hq_r_bm27" AS "bm27" FROM (SELECT "k", "agrp", "am24" FROM "w1") AS hq_sub1 INNER JOIN (SELECT "k" AS "hq_r_k", "bm25" AS "hq_r_bm25", "bm27" AS "hq_r_bm27" FROM "w2") AS hq_sub2 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub3 INNER JOIN (SELECT "k" AS "hq_r_k", "cm29" AS "hq_r_cm29" FROM "w3") AS hq_sub4 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub5 WHERE coalesce((("bm25" > 50.0) OR ((50.0 IS NULL) AND ("bm25" IS NOT NULL))), FALSE) AND coalesce((("cm29" < 950.0) OR (("cm29" IS NULL) AND (950.0 IS NOT NULL))), FALSE) AND ("agrp" IN ('g0'::varchar, 'g1'::varchar, 'g2'::varchar, 'g3'::varchar))) AS hq_sub6 ORDER BY "ordcol" ASC

-- analytical 25: select mx: max am25, mn: min bm28, s: sum cm30, n: count i from ej[`k; ej[`k; w1; w2]; w3] where bm26 > 582.0
-- null_rewrites=2 columns_pruned=5004 sorts_elided=2
SELECT (1)::integer AS "ordcol", "mx", "mn", "s", "n" FROM (SELECT max("am25") AS "mx", min("bm28") AS "mn", coalesce(sum("cm30"), 0.0) AS "s", count(*) AS "n" FROM (SELECT "am25", "bm26", "bm28", "hq_r_cm30" AS "cm30" FROM (SELECT "k", "am25", "hq_r_bm26" AS "bm26", "hq_r_bm28" AS "bm28" FROM (SELECT "k", "am25" FROM "w1") AS hq_sub1 INNER JOIN (SELECT "k" AS "hq_r_k", "bm26" AS "hq_r_bm26", "bm28" AS "hq_r_bm28" FROM "w2") AS hq_sub2 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub3 INNER JOIN (SELECT "k" AS "hq_r_k", "cm30" AS "hq_r_cm30" FROM "w3") AS hq_sub4 ON ("k" IS NOT DISTINCT FROM "hq_r_k")) AS hq_sub5 WHERE coalesce((("bm26" > 582.0) OR ((582.0 IS NULL) AND ("bm26" IS NOT NULL))), FALSE)) AS hq_sub6 ORDER BY "ordcol" ASC

-- wide_adhoc 1: select k, am25, am32 from w1 where am38 > 512.0000001
-- null_rewrites=0 columns_pruned=498 sorts_elided=0
SELECT "ordcol", "k", "am25", "am32" FROM "w1" WHERE coalesce((("am38" > 512.0000001) OR ((512.0000001 IS NULL) AND ("am38" IS NOT NULL))), FALSE) ORDER BY "ordcol" ASC

-- wide_adhoc 2: select k, d: deltas am26, p: prev am33 from w1 where am39 > 512.0000001
-- null_rewrites=1 columns_pruned=498 sorts_elided=0
SELECT "ordcol", "k", CASE WHEN (row_number() OVER (ORDER BY "ordcol" ASC) IS NOT DISTINCT FROM 1) THEN "am26" ELSE ("am26" - lag("am26") OVER (ORDER BY "ordcol" ASC)) END AS "d", lag("am33") OVER (ORDER BY "ordcol" ASC) AS "p" FROM "w1" WHERE coalesce((("am39" > 512.0000001) OR ((512.0000001 IS NULL) AND ("am39" IS NOT NULL))), FALSE) ORDER BY "ordcol" ASC

-- wide_adhoc 3: aj[`k; select k, am27 from w1 where am40 > 512.0000001; select k, bm27 from w2]
-- null_rewrites=0 columns_pruned=1002 sorts_elided=2
SELECT "ordcol", "k", "am27", "hq_r_bm27" AS "bm27" FROM (SELECT "ordcol", "k", "am27" FROM "w1" WHERE coalesce((("am40" > 512.0000001) OR ((512.0000001 IS NULL) AND ("am40" IS NOT NULL))), FALSE)) AS hq_sub3 LEFT OUTER JOIN (SELECT *, lead("hq_r_k") OVER (ORDER BY "hq_r_k" ASC) AS "hq_r_next" FROM (SELECT "k" AS "hq_r_k", "bm27" AS "hq_r_bm27" FROM (SELECT "k", "bm27" FROM "w2") AS hq_sub1) AS hq_sub2) AS hq_sub4 ON (("hq_r_k" <= "k") AND (("k" < "hq_r_next") OR ("hq_r_next" IS NULL))) ORDER BY "ordcol" ASC

-- oracle 1: select from trades
-- null_rewrites=0 columns_pruned=0 sorts_elided=0
SELECT "ordcol", "Date", "Symbol", "Time", "Price", "Size" FROM "trades" ORDER BY "ordcol" ASC

-- oracle 2: select Symbol, Price from trades
-- null_rewrites=0 columns_pruned=3 sorts_elided=0
SELECT "ordcol", "Symbol", "Price" FROM "trades" ORDER BY "ordcol" ASC

-- oracle 3: select Price from trades where Symbol=`GOOG
-- null_rewrites=1 columns_pruned=3 sorts_elided=0
SELECT "ordcol", "Price" FROM "trades" WHERE ("Symbol" IS NOT DISTINCT FROM 'GOOG'::varchar) ORDER BY "ordcol" ASC

-- oracle 4: select Price, Size from trades where Date=2016.06.26
-- null_rewrites=1 columns_pruned=2 sorts_elided=0
SELECT "ordcol", "Price", "Size" FROM "trades" WHERE ("Date" IS NOT DISTINCT FROM DATE '2016-06-26') ORDER BY "ordcol" ASC

-- oracle 5: select from trades where Price within 50 150
-- null_rewrites=0 columns_pruned=0 sorts_elided=0
SELECT "ordcol", "Date", "Symbol", "Time", "Price", "Size" FROM "trades" WHERE (("Price" >= 50) AND ("Price" <= 150)) ORDER BY "ordcol" ASC

-- oracle 6: select Price from trades where Symbol in `GOOG`IBM, Size>100
-- null_rewrites=0 columns_pruned=2 sorts_elided=0
SELECT "ordcol", "Price" FROM "trades" WHERE ("Symbol" IN ('GOOG'::varchar, 'IBM'::varchar)) AND coalesce((("Size" > 100) OR ((100 IS NULL) AND ("Size" IS NOT NULL))), FALSE) ORDER BY "ordcol" ASC

-- oracle 7: select Notional: Price*Size from trades where Size>500
-- null_rewrites=0 columns_pruned=3 sorts_elided=0
SELECT "ordcol", ("Price" * "Size") AS "Notional" FROM "trades" WHERE coalesce((("Size" > 500) OR ((500 IS NULL) AND ("Size" IS NOT NULL))), FALSE) ORDER BY "ordcol" ASC

-- oracle 8: exec Price from trades where Symbol=`GOOG
-- null_rewrites=1 columns_pruned=3 sorts_elided=0
SELECT "ordcol", "Price" FROM "trades" WHERE ("Symbol" IS NOT DISTINCT FROM 'GOOG'::varchar) ORDER BY "ordcol" ASC

-- oracle 9: select from quotes where Ask>Bid
-- null_rewrites=0 columns_pruned=0 sorts_elided=0
SELECT "ordcol", "Date", "Symbol", "Time", "Bid", "Ask", "BidSize", "AskSize" FROM "quotes" WHERE coalesce((("Ask" > "Bid") OR (("Bid" IS NULL) AND ("Ask" IS NOT NULL))), FALSE) ORDER BY "ordcol" ASC

-- oracle 10: select mx: max Price, mn: min Price from trades
-- null_rewrites=0 columns_pruned=5 sorts_elided=0
SELECT (1)::integer AS "ordcol", "mx", "mn" FROM (SELECT max("Price") AS "mx", min("Price") AS "mn" FROM "trades") AS hq_sub1 ORDER BY "ordcol" ASC

-- oracle 11: select s: sum Size, a: avg Price from trades
-- null_rewrites=0 columns_pruned=4 sorts_elided=0
SELECT (1)::integer AS "ordcol", "s", "a" FROM (SELECT coalesce(sum("Size"), 0) AS "s", avg("Price") AS "a" FROM "trades") AS hq_sub1 ORDER BY "ordcol" ASC

-- oracle 12: select n: count i from trades where Symbol=`IBM
-- null_rewrites=1 columns_pruned=5 sorts_elided=0
SELECT (1)::integer AS "ordcol", "n" FROM (SELECT count(*) AS "n" FROM "trades" WHERE ("Symbol" IS NOT DISTINCT FROM 'IBM'::varchar)) AS hq_sub1 ORDER BY "ordcol" ASC

-- oracle 13: select spread: avg Ask-Bid from quotes
-- null_rewrites=0 columns_pruned=6 sorts_elided=0
SELECT (1)::integer AS "ordcol", "spread" FROM (SELECT avg(("Ask" - "Bid")) AS "spread" FROM "quotes") AS hq_sub1 ORDER BY "ordcol" ASC

-- oracle 14: select mx: max Price by Symbol from trades
-- null_rewrites=0 columns_pruned=4 sorts_elided=0
SELECT "Symbol", max("Price") AS "mx" FROM "trades" GROUP BY "Symbol" ORDER BY "Symbol" ASC

-- oracle 15: select s: sum Size by Date from trades
-- null_rewrites=0 columns_pruned=4 sorts_elided=0
SELECT "Date", coalesce(sum("Size"), 0) AS "s" FROM "trades" GROUP BY "Date" ORDER BY "Date" ASC

-- oracle 16: select n: count i by Symbol from trades
-- null_rewrites=0 columns_pruned=5 sorts_elided=0
SELECT "Symbol", count(*) AS "n" FROM "trades" GROUP BY "Symbol" ORDER BY "Symbol" ASC

-- oracle 17: select vwap: (sum Price*Size) % sum Size by Symbol from trades
-- null_rewrites=0 columns_pruned=3 sorts_elided=0
SELECT "Symbol", (coalesce(sum(("Price" * "Size")), 0.0) / coalesce(sum("Size"), 0)) AS "vwap" FROM "trades" GROUP BY "Symbol" ORDER BY "Symbol" ASC

-- oracle 18: select mx: max Price by Date, Symbol from trades
-- null_rewrites=0 columns_pruned=3 sorts_elided=0
SELECT "Date", "Symbol", max("Price") AS "mx" FROM "trades" GROUP BY "Date", "Symbol" ORDER BY "Date" ASC, "Symbol" ASC

-- oracle 19: select s: sum Size by 1000 xbar Size from trades
-- null_rewrites=0 columns_pruned=5 sorts_elided=0
SELECT ("Size" - (("Size" % 1000))::bigint) AS "x", coalesce(sum("Size"), 0) AS "s" FROM "trades" GROUP BY ("Size" - (("Size" % 1000))::bigint) ORDER BY "x" ASC

-- oracle 20: select d: dev Price, v: var Price by Symbol from trades
-- null_rewrites=0 columns_pruned=4 sorts_elided=0
SELECT "Symbol", stddev_pop("Price") AS "d", var_pop("Price") AS "v" FROM "trades" GROUP BY "Symbol" ORDER BY "Symbol" ASC

-- oracle 21: select d: sdev Price, v: svar Price by Symbol from trades
-- null_rewrites=0 columns_pruned=4 sorts_elided=0
SELECT "Symbol", stddev_samp("Price") AS "d", var_samp("Price") AS "v" FROM "trades" GROUP BY "Symbol" ORDER BY "Symbol" ASC

-- oracle 22: select d: dev Px, v: var Px, sd: sdev Px, sv: svar Px by Sym from nullable
-- null_rewrites=0 columns_pruned=2 sorts_elided=0
SELECT "Sym", stddev_pop("Px") AS "d", var_pop("Px") AS "v", stddev_samp("Px") AS "sd", var_samp("Px") AS "sv" FROM "nullable" GROUP BY "Sym" ORDER BY "Sym" ASC

-- oracle 23: select d: dev Price, sd: sdev Price from trades where Symbol=`NONE
-- null_rewrites=1 columns_pruned=4 sorts_elided=0
SELECT (1)::integer AS "ordcol", "d", "sd" FROM (SELECT stddev_pop("Price") AS "d", stddev_samp("Price") AS "sd" FROM "trades" WHERE ("Symbol" IS NOT DISTINCT FROM 'NONE'::varchar)) AS hq_sub1 ORDER BY "ordcol" ASC

-- oracle 24: aj[`Symbol`Time; select Symbol, Time, Price from trades; select Symbol, Time, Bid, Ask from quotes]
-- null_rewrites=1 columns_pruned=8 sorts_elided=2
SELECT "ordcol", "Symbol", "Time", "Price", "hq_r_Bid" AS "Bid", "hq_r_Ask" AS "Ask" FROM (SELECT "ordcol", "Symbol", "Time", "Price" FROM "trades") AS hq_sub3 LEFT OUTER JOIN (SELECT *, lead("hq_r_Time") OVER (PARTITION BY "hq_r_Symbol" ORDER BY "hq_r_Time" ASC) AS "hq_r_next" FROM (SELECT "Symbol" AS "hq_r_Symbol", "Time" AS "hq_r_Time", "Bid" AS "hq_r_Bid", "Ask" AS "hq_r_Ask" FROM (SELECT "Symbol", "Time", "Bid", "Ask" FROM "quotes") AS hq_sub1) AS hq_sub2) AS hq_sub4 ON ((("Symbol" IS NOT DISTINCT FROM "hq_r_Symbol") AND ("hq_r_Time" <= "Time")) AND (("Time" < "hq_r_next") OR ("hq_r_next" IS NULL))) ORDER BY "ordcol" ASC

-- oracle 25: aj[`Symbol`Time; select Symbol, Time, Price from trades where Date=2016.06.26; select Symbol, Time, Bid, Ask from quotes where Date=2016.06.26]
-- null_rewrites=3 columns_pruned=6 sorts_elided=2
SELECT "ordcol", "Symbol", "Time", "Price", "hq_r_Bid" AS "Bid", "hq_r_Ask" AS "Ask" FROM (SELECT "ordcol", "Symbol", "Time", "Price" FROM "trades" WHERE ("Date" IS NOT DISTINCT FROM DATE '2016-06-26')) AS hq_sub3 LEFT OUTER JOIN (SELECT *, lead("hq_r_Time") OVER (PARTITION BY "hq_r_Symbol" ORDER BY "hq_r_Time" ASC) AS "hq_r_next" FROM (SELECT "Symbol" AS "hq_r_Symbol", "Time" AS "hq_r_Time", "Bid" AS "hq_r_Bid", "Ask" AS "hq_r_Ask" FROM (SELECT "Symbol", "Time", "Bid", "Ask" FROM "quotes" WHERE ("Date" IS NOT DISTINCT FROM DATE '2016-06-26')) AS hq_sub1) AS hq_sub2) AS hq_sub4 ON ((("Symbol" IS NOT DISTINCT FROM "hq_r_Symbol") AND ("hq_r_Time" <= "Time")) AND (("Time" < "hq_r_next") OR ("hq_r_next" IS NULL))) ORDER BY "ordcol" ASC

-- oracle 26: trades lj 1!refdata
-- null_rewrites=2 columns_pruned=2 sorts_elided=0
SELECT "ordcol", "Date", "Symbol", "Time", "Price", "Size", "hq_r_Sector" AS "Sector", "hq_r_Lot" AS "Lot" FROM (SELECT "ordcol", "Date", "Symbol", "Time", "Price", "Size" FROM "trades") AS hq_sub3 LEFT OUTER JOIN (SELECT "Symbol" AS "hq_r_Symbol", "Sector" AS "hq_r_Sector", "Lot" AS "hq_r_Lot" FROM (SELECT "Symbol", "Sector", "Lot" FROM (SELECT "ordcol", "Symbol", "Sector", "Lot", row_number() OVER (PARTITION BY "Symbol" ORDER BY "ordcol" ASC) AS "hq_rn" FROM "refdata") AS hq_sub1 WHERE ("hq_rn" IS NOT DISTINCT FROM 1)) AS hq_sub2) AS hq_sub4 ON ("Symbol" IS NOT DISTINCT FROM "hq_r_Symbol") ORDER BY "ordcol" ASC

-- oracle 27: trades ij 1!refdata
-- null_rewrites=2 columns_pruned=2 sorts_elided=0
SELECT "ordcol", "Date", "Symbol", "Time", "Price", "Size", "hq_r_Sector" AS "Sector", "hq_r_Lot" AS "Lot" FROM (SELECT "ordcol", "Date", "Symbol", "Time", "Price", "Size" FROM "trades") AS hq_sub3 INNER JOIN (SELECT "Symbol" AS "hq_r_Symbol", "Sector" AS "hq_r_Sector", "Lot" AS "hq_r_Lot" FROM (SELECT "Symbol", "Sector", "Lot" FROM (SELECT "ordcol", "Symbol", "Sector", "Lot", row_number() OVER (PARTITION BY "Symbol" ORDER BY "ordcol" ASC) AS "hq_rn" FROM "refdata") AS hq_sub1 WHERE ("hq_rn" IS NOT DISTINCT FROM 1)) AS hq_sub2) AS hq_sub4 ON ("Symbol" IS NOT DISTINCT FROM "hq_r_Symbol") ORDER BY "ordcol" ASC

-- oracle 28: select mx: max Price by Sector from trades lj 1!refdata
-- null_rewrites=2 columns_pruned=15 sorts_elided=1
SELECT "Sector", max("Price") AS "mx" FROM (SELECT "Price", "hq_r_Sector" AS "Sector" FROM (SELECT "Symbol", "Price" FROM "trades") AS hq_sub3 LEFT OUTER JOIN (SELECT "Symbol" AS "hq_r_Symbol", "Sector" AS "hq_r_Sector" FROM (SELECT "Symbol", "Sector" FROM (SELECT "ordcol", "Symbol", "Sector", row_number() OVER (PARTITION BY "Symbol" ORDER BY "ordcol" ASC) AS "hq_rn" FROM "refdata") AS hq_sub1 WHERE ("hq_rn" IS NOT DISTINCT FROM 1)) AS hq_sub2) AS hq_sub4 ON ("Symbol" IS NOT DISTINCT FROM "hq_r_Symbol")) AS hq_sub5 GROUP BY "Sector" ORDER BY "Sector" ASC

-- oracle 29: (select Symbol, Price from trades where Size>900) uj select Symbol, Price, Size from trades where Size<100
-- null_rewrites=0 columns_pruned=4 sorts_elided=2
SELECT "ordcol", "Symbol", "Price", NULL::bigint AS "Size" FROM (SELECT "ordcol", "Symbol", "Price" FROM "trades" WHERE coalesce((("Size" > 900) OR ((900 IS NULL) AND ("Size" IS NOT NULL))), FALSE)) AS hq_sub1 UNION ALL SELECT "ordcol", "Symbol", "Price", "Size" FROM (SELECT "ordcol", "Symbol", "Price", "Size" FROM "trades" WHERE coalesce((("Size" < 100) OR (("Size" IS NULL) AND (100 IS NOT NULL))), FALSE)) AS hq_sub2

-- oracle 30: select from nullable where Qty=0N
-- null_rewrites=1 columns_pruned=0 sorts_elided=0
SELECT "ordcol", "Sym", "Qty", "Px" FROM "nullable" WHERE ("Qty" IS NOT DISTINCT FROM NULL::bigint) ORDER BY "ordcol" ASC

-- oracle 31: select from nullable where Qty>20
-- null_rewrites=0 columns_pruned=0 sorts_elided=0
SELECT "ordcol", "Sym", "Qty", "Px" FROM "nullable" WHERE coalesce((("Qty" > 20) OR ((20 IS NULL) AND ("Qty" IS NOT NULL))), FALSE) ORDER BY "ordcol" ASC

-- oracle 32: select s: sum Qty by Sym from nullable
-- null_rewrites=0 columns_pruned=2 sorts_elided=0
SELECT "Sym", coalesce(sum("Qty"), 0) AS "s" FROM "nullable" GROUP BY "Sym" ORDER BY "Sym" ASC

-- oracle 33: select n: count Px, m: count i from nullable
-- null_rewrites=0 columns_pruned=3 sorts_elided=0
SELECT (1)::integer AS "ordcol", "n", "m" FROM (SELECT count(*) AS "n", count(*) AS "m" FROM "nullable") AS hq_sub1 ORDER BY "ordcol" ASC

-- oracle 34: select mx: max Px, mn: min Px from nullable
-- null_rewrites=0 columns_pruned=3 sorts_elided=0
SELECT (1)::integer AS "ordcol", "mx", "mn" FROM (SELECT max("Px") AS "mx", min("Px") AS "mn" FROM "nullable") AS hq_sub1 ORDER BY "ordcol" ASC

-- oracle 35: update Qty: 0N from nullable where Sym=`A
-- null_rewrites=1 columns_pruned=0 sorts_elided=0
SELECT "ordcol", "Sym", CASE WHEN ("Sym" IS NOT DISTINCT FROM 'A'::varchar) THEN NULL::bigint ELSE "Qty" END AS "Qty", "Px" FROM "nullable" ORDER BY "ordcol" ASC

-- oracle 36: select Price, prevPx: prev Price from trades
-- null_rewrites=0 columns_pruned=4 sorts_elided=0
SELECT "ordcol", "Price", lag("Price") OVER (ORDER BY "ordcol" ASC) AS "prevPx" FROM "trades" ORDER BY "ordcol" ASC

-- oracle 37: select d: deltas Price from trades where Symbol=`GOOG
-- null_rewrites=2 columns_pruned=3 sorts_elided=0
SELECT "ordcol", CASE WHEN (row_number() OVER (ORDER BY "ordcol" ASC) IS NOT DISTINCT FROM 1) THEN "Price" ELSE ("Price" - lag("Price") OVER (ORDER BY "ordcol" ASC)) END AS "d" FROM "trades" WHERE ("Symbol" IS NOT DISTINCT FROM 'GOOG'::varchar) ORDER BY "ordcol" ASC

-- oracle 38: select open: first Price, close: last Price by Symbol from trades
-- null_rewrites=0 columns_pruned=4 sorts_elided=0
SELECT "Symbol", hq_first("Price") AS "open", hq_last("Price") AS "close" FROM "trades" GROUP BY "Symbol" ORDER BY "Symbol" ASC

-- oracle 39: select Price, nextPx: next Price from trades where Symbol=`IBM
-- null_rewrites=1 columns_pruned=3 sorts_elided=0
SELECT "ordcol", "Price", lead("Price") OVER (ORDER BY "ordcol" ASC) AS "nextPx" FROM "trades" WHERE ("Symbol" IS NOT DISTINCT FROM 'IBM'::varchar) ORDER BY "ordcol" ASC

-- oracle 40: `Price xdesc select from trades where Date=2016.06.26
-- null_rewrites=1 columns_pruned=0 sorts_elided=1
SELECT "ordcol", "Date", "Symbol", "Time", "Price", "Size" FROM "trades" WHERE ("Date" IS NOT DISTINCT FROM DATE '2016-06-26') ORDER BY "Price" DESC

-- oracle 41: `Symbol`Time xasc select Symbol, Time, Price from trades
-- null_rewrites=0 columns_pruned=2 sorts_elided=1
SELECT "ordcol", "Symbol", "Time", "Price" FROM "trades" ORDER BY "Symbol" ASC, "Time" ASC

-- oracle 42: select last Bid by Symbol from quotes
-- null_rewrites=0 columns_pruned=6 sorts_elided=0
SELECT "Symbol", hq_last("Bid") AS "Bid" FROM "quotes" GROUP BY "Symbol" ORDER BY "Symbol" ASC

-- taq 1: select Time, Price, Size from trades where Date=2016.06.26, Symbol=`GOOG
-- null_rewrites=2 columns_pruned=0 sorts_elided=0
SELECT "ordcol", "Time", "Price", "Size" FROM "trades" WHERE ("Date" IS NOT DISTINCT FROM DATE '2016-06-26') AND ("Symbol" IS NOT DISTINCT FROM 'GOOG'::varchar) ORDER BY "ordcol" ASC

-- taq 2: select Time, Bid, Ask from quotes where Date=2016.06.26, Symbol=`IBM
-- null_rewrites=2 columns_pruned=2 sorts_elided=0
SELECT "ordcol", "Time", "Bid", "Ask" FROM "quotes" WHERE ("Date" IS NOT DISTINCT FROM DATE '2016-06-26') AND ("Symbol" IS NOT DISTINCT FROM 'IBM'::varchar) ORDER BY "ordcol" ASC

-- taq 3: select Time, Notional: Price*Size from trades where Date=2016.06.27, Symbol=`MSFT
-- null_rewrites=2 columns_pruned=0 sorts_elided=0
SELECT "ordcol", "Time", ("Price" * "Size") AS "Notional" FROM "trades" WHERE ("Date" IS NOT DISTINCT FROM DATE '2016-06-27') AND ("Symbol" IS NOT DISTINCT FROM 'MSFT'::varchar) ORDER BY "ordcol" ASC

-- taq 4: select vwap: (sum Price*Size) % sum Size by Symbol from trades where Date=2016.06.26, Size>300
-- null_rewrites=1 columns_pruned=2 sorts_elided=0
SELECT "Symbol", (coalesce(sum(("Price" * "Size")), 0.0) / coalesce(sum("Size"), 0)) AS "vwap" FROM "trades" WHERE ("Date" IS NOT DISTINCT FROM DATE '2016-06-26') AND coalesce((("Size" > 300) OR ((300 IS NULL) AND ("Size" IS NOT NULL))), FALSE) GROUP BY "Symbol" ORDER BY "Symbol" ASC

-- taq 5: select open: first Price, close: last Price, hi: max Price, lo: min Price by Symbol from trades where Date=2016.06.26, Size>200
-- null_rewrites=1 columns_pruned=2 sorts_elided=0
SELECT "Symbol", hq_first("Price") AS "open", hq_last("Price") AS "close", max("Price") AS "hi", min("Price") AS "lo" FROM "trades" WHERE ("Date" IS NOT DISTINCT FROM DATE '2016-06-26') AND coalesce((("Size" > 200) OR ((200 IS NULL) AND ("Size" IS NOT NULL))), FALSE) GROUP BY "Symbol" ORDER BY "Symbol" ASC

-- taq 6: select s: sum Size, n: count i by 1000 xbar Size from trades where Date=2016.06.26, Symbol=`GOOG
-- null_rewrites=2 columns_pruned=3 sorts_elided=0
SELECT ("Size" - (("Size" % 1000))::bigint) AS "x", coalesce(sum("Size"), 0) AS "s", count(*) AS "n" FROM "trades" WHERE ("Date" IS NOT DISTINCT FROM DATE '2016-06-26') AND ("Symbol" IS NOT DISTINCT FROM 'GOOG'::varchar) GROUP BY ("Size" - (("Size" % 1000))::bigint) ORDER BY "x" ASC

-- taq 7: select Time, Price, d: deltas Price from trades where Date=2016.06.26, Symbol=`GOOG
-- null_rewrites=3 columns_pruned=1 sorts_elided=0
SELECT "ordcol", "Time", "Price", CASE WHEN (row_number() OVER (ORDER BY "ordcol" ASC) IS NOT DISTINCT FROM 1) THEN "Price" ELSE ("Price" - lag("Price") OVER (ORDER BY "ordcol" ASC)) END AS "d" FROM "trades" WHERE ("Date" IS NOT DISTINCT FROM DATE '2016-06-26') AND ("Symbol" IS NOT DISTINCT FROM 'GOOG'::varchar) ORDER BY "ordcol" ASC

-- taq 8: select Time, Price, p: prev Price from trades where Date=2016.06.26, Symbol=`IBM
-- null_rewrites=2 columns_pruned=1 sorts_elided=0
SELECT "ordcol", "Time", "Price", lag("Price") OVER (ORDER BY "ordcol" ASC) AS "p" FROM "trades" WHERE ("Date" IS NOT DISTINCT FROM DATE '2016-06-26') AND ("Symbol" IS NOT DISTINCT FROM 'IBM'::varchar) ORDER BY "ordcol" ASC

-- taq 9: select Time, Bid, p: prev Bid, d: deltas Ask from quotes where Date=2016.06.27, Symbol=`AAPL
-- null_rewrites=3 columns_pruned=2 sorts_elided=0
SELECT "ordcol", "Time", "Bid", lag("Bid") OVER (ORDER BY "ordcol" ASC) AS "p", CASE WHEN (row_number() OVER (ORDER BY "ordcol" ASC) IS NOT DISTINCT FROM 1) THEN "Ask" ELSE ("Ask" - lag("Ask") OVER (ORDER BY "ordcol" ASC)) END AS "d" FROM "quotes" WHERE ("Date" IS NOT DISTINCT FROM DATE '2016-06-27') AND ("Symbol" IS NOT DISTINCT FROM 'AAPL'::varchar) ORDER BY "ordcol" ASC

-- taq 10: select hi: max Price, lots: sum Size by Sector from trades lj 1!refdata where Date=2016.06.26, Size>100
-- null_rewrites=3 columns_pruned=11 sorts_elided=1
SELECT "Sector", max("Price") AS "hi", coalesce(sum("Size"), 0) AS "lots" FROM (SELECT "Date", "Price", "Size", "hq_r_Sector" AS "Sector" FROM (SELECT "Date", "Symbol", "Price", "Size" FROM "trades") AS hq_sub3 LEFT OUTER JOIN (SELECT "Symbol" AS "hq_r_Symbol", "Sector" AS "hq_r_Sector" FROM (SELECT "Symbol", "Sector" FROM (SELECT "ordcol", "Symbol", "Sector", row_number() OVER (PARTITION BY "Symbol" ORDER BY "ordcol" ASC) AS "hq_rn" FROM "refdata") AS hq_sub1 WHERE ("hq_rn" IS NOT DISTINCT FROM 1)) AS hq_sub2) AS hq_sub4 ON ("Symbol" IS NOT DISTINCT FROM "hq_r_Symbol")) AS hq_sub5 WHERE ("Date" IS NOT DISTINCT FROM DATE '2016-06-26') AND coalesce((("Size" > 100) OR ((100 IS NULL) AND ("Size" IS NOT NULL))), FALSE) GROUP BY "Sector" ORDER BY "Sector" ASC

-- taq 11: aj[`Symbol`Time; select Symbol, Time, Price from trades where Date=2016.06.26, Symbol=`GOOG, Time within (09:30:00.000;10:30:00.000); select Symbol, Time, Bid, Ask from quotes where Date=2016.06.26, Symbol=`GOOG, Time within (09:30:00.000;10:30:00.000)]
-- null_rewrites=5 columns_pruned=6 sorts_elided=2
SELECT "ordcol", "Symbol", "Time", "Price", "hq_r_Bid" AS "Bid", "hq_r_Ask" AS "Ask" FROM (SELECT "ordcol", "Symbol", "Time", "Price" FROM "trades" WHERE ("Date" IS NOT DISTINCT FROM DATE '2016-06-26') AND ("Symbol" IS NOT DISTINCT FROM 'GOOG'::varchar) AND (("Time" >= TIME '09:30:00.000000') AND ("Time" <= TIME '10:30:00.000000'))) AS hq_sub3 LEFT OUTER JOIN (SELECT *, lead("hq_r_Time") OVER (PARTITION BY "hq_r_Symbol" ORDER BY "hq_r_Time" ASC) AS "hq_r_next" FROM (SELECT "Symbol" AS "hq_r_Symbol", "Time" AS "hq_r_Time", "Bid" AS "hq_r_Bid", "Ask" AS "hq_r_Ask" FROM (SELECT "Symbol", "Time", "Bid", "Ask" FROM "quotes" WHERE ("Date" IS NOT DISTINCT FROM DATE '2016-06-26') AND ("Symbol" IS NOT DISTINCT FROM 'GOOG'::varchar) AND (("Time" >= TIME '09:30:00.000000') AND ("Time" <= TIME '10:30:00.000000'))) AS hq_sub1) AS hq_sub2) AS hq_sub4 ON ((("Symbol" IS NOT DISTINCT FROM "hq_r_Symbol") AND ("hq_r_Time" <= "Time")) AND (("Time" < "hq_r_next") OR ("hq_r_next" IS NULL))) ORDER BY "ordcol" ASC

-- taq 12: select slip: avg Price-Bid by Symbol from aj[`Symbol`Time; select Symbol, Time, Price from trades where Date=2016.06.26, Symbol=`IBM; select Symbol, Time, Bid, Ask from quotes where Date=2016.06.26, Symbol=`IBM]
-- null_rewrites=5 columns_pruned=14 sorts_elided=3
SELECT "Symbol", avg(("Price" - "Bid")) AS "slip" FROM (SELECT "Symbol", "Price", "hq_r_Bid" AS "Bid" FROM (SELECT "Symbol", "Time", "Price" FROM "trades" WHERE ("Date" IS NOT DISTINCT FROM DATE '2016-06-26') AND ("Symbol" IS NOT DISTINCT FROM 'IBM'::varchar)) AS hq_sub3 LEFT OUTER JOIN (SELECT *, lead("hq_r_Time") OVER (PARTITION BY "hq_r_Symbol" ORDER BY "hq_r_Time" ASC) AS "hq_r_next" FROM (SELECT "Symbol" AS "hq_r_Symbol", "Time" AS "hq_r_Time", "Bid" AS "hq_r_Bid" FROM (SELECT "Symbol", "Time", "Bid" FROM "quotes" WHERE ("Date" IS NOT DISTINCT FROM DATE '2016-06-26') AND ("Symbol" IS NOT DISTINCT FROM 'IBM'::varchar)) AS hq_sub1) AS hq_sub2) AS hq_sub4 ON ((("Symbol" IS NOT DISTINCT FROM "hq_r_Symbol") AND ("hq_r_Time" <= "Time")) AND (("Time" < "hq_r_next") OR ("hq_r_next" IS NULL)))) AS hq_sub5 GROUP BY "Symbol" ORDER BY "Symbol" ASC

-- taq 13: select Time, Symbol, Price, Size from trades where i>=100, i<180, Size>5000
-- null_rewrites=0 columns_pruned=1 sorts_elided=0
SELECT "ordcol", "Time", "Symbol", "Price", "Size" FROM "trades" WHERE coalesce(((("ordcol" - 1) >= 100) OR (100 IS NULL)), FALSE) AND coalesce(((("ordcol" - 1) < 180) OR ((("ordcol" - 1) IS NULL) AND (180 IS NOT NULL))), FALSE) AND coalesce((("Size" > 5000) OR ((5000 IS NULL) AND ("Size" IS NOT NULL))), FALSE) ORDER BY "ordcol" ASC

-- taq 14: select px: last Price by Symbol from trades where i>=0, i<150
-- null_rewrites=0 columns_pruned=3 sorts_elided=0
SELECT "Symbol", hq_last("Price") AS "px" FROM "trades" WHERE coalesce(((("ordcol" - 1) >= 0) OR (0 IS NULL)), FALSE) AND coalesce(((("ordcol" - 1) < 150) OR ((("ordcol" - 1) IS NULL) AND (150 IS NOT NULL))), FALSE) GROUP BY "Symbol" ORDER BY "Symbol" ASC

-- taq 15: select n: count i, s: sum Size by Symbol from trades where i>=20, i<200
-- null_rewrites=0 columns_pruned=3 sorts_elided=0
SELECT "Symbol", count(*) AS "n", coalesce(sum("Size"), 0) AS "s" FROM "trades" WHERE coalesce(((("ordcol" - 1) >= 20) OR (20 IS NULL)), FALSE) AND coalesce(((("ordcol" - 1) < 200) OR ((("ordcol" - 1) IS NULL) AND (200 IS NOT NULL))), FALSE) GROUP BY "Symbol" ORDER BY "Symbol" ASC

-- taq 16: select Time, Price, d: deltas Price from trades where i>=10, i<190, Symbol=`GOOG
-- null_rewrites=2 columns_pruned=2 sorts_elided=0
SELECT "ordcol", "Time", "Price", CASE WHEN (row_number() OVER (ORDER BY "ordcol" ASC) IS NOT DISTINCT FROM 1) THEN "Price" ELSE ("Price" - lag("Price") OVER (ORDER BY "ordcol" ASC)) END AS "d" FROM "trades" WHERE coalesce(((("ordcol" - 1) >= 10) OR (10 IS NULL)), FALSE) AND coalesce(((("ordcol" - 1) < 190) OR ((("ordcol" - 1) IS NULL) AND (190 IS NOT NULL))), FALSE) AND ("Symbol" IS NOT DISTINCT FROM 'GOOG'::varchar) ORDER BY "ordcol" ASC

-- taq 17: aj[`Symbol`Time; select Symbol, Time, Price from trades where i>=40, i<200; select Symbol, Time, Bid, Ask from quotes where Date=2016.06.26, Time within (09:30:00.000;16:00:00.000)]
-- null_rewrites=2 columns_pruned=7 sorts_elided=2
SELECT "ordcol", "Symbol", "Time", "Price", "hq_r_Bid" AS "Bid", "hq_r_Ask" AS "Ask" FROM (SELECT "ordcol", "Symbol", "Time", "Price" FROM "trades" WHERE coalesce(((("ordcol" - 1) >= 40) OR (40 IS NULL)), FALSE) AND coalesce(((("ordcol" - 1) < 200) OR ((("ordcol" - 1) IS NULL) AND (200 IS NOT NULL))), FALSE)) AS hq_sub3 LEFT OUTER JOIN (SELECT *, lead("hq_r_Time") OVER (PARTITION BY "hq_r_Symbol" ORDER BY "hq_r_Time" ASC) AS "hq_r_next" FROM (SELECT "Symbol" AS "hq_r_Symbol", "Time" AS "hq_r_Time", "Bid" AS "hq_r_Bid", "Ask" AS "hq_r_Ask" FROM (SELECT "Symbol", "Time", "Bid", "Ask" FROM "quotes" WHERE ("Date" IS NOT DISTINCT FROM DATE '2016-06-26') AND (("Time" >= TIME '09:30:00.000000') AND ("Time" <= TIME '16:00:00.000000'))) AS hq_sub1) AS hq_sub2) AS hq_sub4 ON ((("Symbol" IS NOT DISTINCT FROM "hq_r_Symbol") AND ("hq_r_Time" <= "Time")) AND (("Time" < "hq_r_next") OR ("hq_r_next" IS NULL))) ORDER BY "ordcol" ASC

-- taq 18: aj[`Symbol`Time; trades; quotes]
-- null_rewrites=1 columns_pruned=4 sorts_elided=0
SELECT "ordcol", "Date", "Symbol", "Time", "Price", "Size", "hq_r_Bid" AS "Bid", "hq_r_Ask" AS "Ask", "hq_r_BidSize" AS "BidSize", "hq_r_AskSize" AS "AskSize" FROM (SELECT "ordcol", "Date", "Symbol", "Time", "Price", "Size" FROM "trades") AS hq_sub2 LEFT OUTER JOIN (SELECT *, lead("hq_r_Time") OVER (PARTITION BY "hq_r_Symbol" ORDER BY "hq_r_Time" ASC) AS "hq_r_next" FROM (SELECT "Symbol" AS "hq_r_Symbol", "Time" AS "hq_r_Time", "Bid" AS "hq_r_Bid", "Ask" AS "hq_r_Ask", "BidSize" AS "hq_r_BidSize", "AskSize" AS "hq_r_AskSize" FROM "quotes") AS hq_sub1) AS hq_sub3 ON ((("Symbol" IS NOT DISTINCT FROM "hq_r_Symbol") AND ("hq_r_Time" <= "Time")) AND (("Time" < "hq_r_next") OR ("hq_r_next" IS NULL))) ORDER BY "ordcol" ASC

-- taq 19: trades lj 1!select Symbol, Bid, Ask from quotes where Date=2016.06.26
-- null_rewrites=3 columns_pruned=5 sorts_elided=1
SELECT "ordcol", "Date", "Symbol", "Time", "Price", "Size", "hq_r_Bid" AS "Bid", "hq_r_Ask" AS "Ask" FROM (SELECT "ordcol", "Date", "Symbol", "Time", "Price", "Size" FROM "trades") AS hq_sub4 LEFT OUTER JOIN (SELECT "Symbol" AS "hq_r_Symbol", "Bid" AS "hq_r_Bid", "Ask" AS "hq_r_Ask" FROM (SELECT "Symbol", "Bid", "Ask" FROM (SELECT *, row_number() OVER (PARTITION BY "Symbol" ORDER BY "ordcol" ASC) AS "hq_rn" FROM (SELECT "ordcol", "Symbol", "Bid", "Ask" FROM "quotes" WHERE ("Date" IS NOT DISTINCT FROM DATE '2016-06-26')) AS hq_sub1) AS hq_sub2 WHERE ("hq_rn" IS NOT DISTINCT FROM 1)) AS hq_sub3) AS hq_sub5 ON ("Symbol" IS NOT DISTINCT FROM "hq_r_Symbol") ORDER BY "ordcol" ASC

-- taq 20: select Price, p: prev Price, n: next Price, d: deltas Size from trades where Symbol=`IBM
-- null_rewrites=2 columns_pruned=2 sorts_elided=0
SELECT "ordcol", "Price", lag("Price") OVER (ORDER BY "ordcol" ASC) AS "p", lead("Price") OVER (ORDER BY "ordcol" ASC) AS "n", CASE WHEN (row_number() OVER (ORDER BY "ordcol" ASC) IS NOT DISTINCT FROM 1) THEN "Size" ELSE ("Size" - lag("Size") OVER (ORDER BY "ordcol" ASC)) END AS "d" FROM "trades" WHERE ("Symbol" IS NOT DISTINCT FROM 'IBM'::varchar) ORDER BY "ordcol" ASC

