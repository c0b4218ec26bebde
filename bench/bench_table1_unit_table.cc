// Table 1 (paper §5.2.1): the unit table for T = Prestige[A] and
// Y = AVG_Score[A] on the Figure 2 toy instance. Prints the same columns
// the paper reports: outcome, embedded coauthors' treatments (AVG),
// centrality (COUNT), embedded collaborators' h-index (AVG).

#include <cstdio>

#include "bench_timer.h"
#include "bench_util.h"
#include "datagen/review_toy.h"
#include "lang/parser.h"

namespace carl {
namespace {

int Run(const bench::BenchFlags&) {
  bench::Stopwatch total;
  bench::PrintHeader(
      "Table 1 - unit table for Prestige[A] -> AVG_Score[A] (Fig 2 toy)");

  Result<datagen::Dataset> data = datagen::MakeReviewToy();
  CARL_CHECK_OK(data.status());
  std::unique_ptr<CarlEngine> engine = bench::MakeEngine(*data);

  Result<CausalQuery> query = ParseQuery("AVG_Score[A] <= Prestige[A]?");
  CARL_CHECK_OK(query.status());
  Result<UnitTable> table = engine->BuildUnitTableForQuery(*query);
  CARL_CHECK_OK(table.status());

  bench::PrintRow({"Author", "AVG_Score", "Prestige(own)", "PeerT(AVG)",
                   "Centrality", "PeerHIdx(AVG)"});
  bench::PrintRule();
  const FlatTable& d = table->data;
  for (size_t r = 0; r < d.num_rows(); ++r) {
    const std::string& name =
        data->instance->ConstantName(table->units()[r][0]);
    bench::PrintRow({name, StrFormat("%.3f", d.Column("y")[r]),
                     StrFormat("%.0f", d.Column("t")[r]),
                     StrFormat("%.2f", d.Column("peer_t_mean")[r]),
                     StrFormat("%.0f", d.Column("peer_count")[r]),
                     StrFormat("%.1f",
                               d.Column("peer_Qualification_mean")[r])});
  }
  bench::PrintRule();
  std::printf(
      "Paper's Table 1: Bob (0.75, 1, 1, 2), Carlos (0.1, 1, 1, 2),\n"
      "                 Eva (0.41, 0.5, 2, 35).\n");
  bench::EmitJson("table1_unit_table", "", "wall_s", total.Seconds());
  return 0;
}

}  // namespace
}  // namespace carl

int main(int argc, char** argv) {
  return carl::Run(carl::bench::ParseFlags(argc, argv));
}
