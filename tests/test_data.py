import numpy as np
import pytest

from semireg.data import (
    CsvSchema,
    Normalizer,
    RegressionDataset,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    noise_sigma,
    split_semi_supervised,
)
from semireg.errors import DataSchemaError, NonFiniteError, ParameterError, ShapeError
from semireg.rng import Rng


class TestDataset:
    def test_features_must_be_2d_and_finite(self):
        with pytest.raises(ShapeError):
            RegressionDataset(features=np.array([1.0, 2.0]))
        with pytest.raises(NonFiniteError):
            RegressionDataset(features=np.array([[np.nan, 1.0]]))
        with pytest.raises(NonFiniteError):
            RegressionDataset(features=np.array([[np.inf], [0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_targets_must_be_finite(self, bad):
        # a non-finite target would make the labeled target mean non-finite
        with pytest.raises(NonFiniteError, match="targets must be finite"):
            RegressionDataset(np.zeros((3, 2)), [1.0, bad, 2.0])

    def test_features_are_a_read_only_copy(self):
        raw = np.array([[1.0, 2.0], [3.0, 4.0]])
        data = RegressionDataset(features=raw)
        with pytest.raises(ValueError):
            data.features[0, 0] = 2.0
        raw[0, 0] = 5.0
        assert data.features[0, 0] == 1.0
        assert data.features.dtype == np.float64 and data.features.flags.c_contiguous
        assert not data.subset(np.array([1])).features.flags.writeable
        synthetic = generate_synthetic(SyntheticSpec(n_samples=40, seed=1))
        assert not synthetic.features.flags.writeable


class TestSynthetic:
    def test_noiseless_targets_are_exact(self):
        spec = SyntheticSpec(n_samples=50, target_function="linear", noise_scale=0.0, seed=1)
        data = generate_synthetic(spec)
        slopes = np.array([1.0])
        expected = data.features @ slopes + 0.5
        assert np.array_equal(data.targets, expected)
        assert np.all(noise_sigma(spec, data.features) == 0.0)

    def test_ols_recovers_linear_slope(self):
        spec = SyntheticSpec(
            n_samples=10_000,
            input_dim=2,
            target_function="linear",
            noise_model="constant",
            noise_scale=0.5,
            seed=2,
        )
        data = generate_synthetic(spec)
        x = np.column_stack([data.features, np.ones(data.n)])
        coef, *_ = np.linalg.lstsq(x, data.targets, rcond=None)
        # closed-form OLS standard errors
        residuals = data.targets - x @ coef
        sigma2 = residuals @ residuals / (data.n - 3)
        cov = sigma2 * np.linalg.inv(x.T @ x)
        se = np.sqrt(np.diag(cov))
        true_coef = np.array([1.0, 1.5, 0.5])
        assert np.all(np.abs(coef - true_coef) < 3 * se)

    def test_input_dependent_noise_varies_across_inputs(self):
        spec = SyntheticSpec(n_samples=20_000, noise_model="input_dependent", seed=3)
        data = generate_synthetic(spec)
        x0 = data.features[:, 0]
        residual = data.targets - (np.sin(2 * x0) + 0.5 * x0)
        low_region = residual[x0 < -1.5]
        high_region = residual[x0 > 1.5]
        assert high_region.var() > 4 * low_region.var()

    def test_noise_calibration_correlates_with_binned_variance(self):
        spec = SyntheticSpec(n_samples=20_000, noise_model="input_dependent", seed=4)
        data = generate_synthetic(spec)
        x0 = data.features[:, 0]
        residual = data.targets - (np.sin(2 * x0) + 0.5 * x0)
        sigma = noise_sigma(spec, data.features)
        order = np.argsort(sigma)
        bins = np.array_split(order, 20)
        true_sigma = np.array([sigma[b].mean() for b in bins])
        emp_var = np.array([residual[b].var() for b in bins])
        corr = np.corrcoef(true_sigma, emp_var)[0, 1]
        assert corr > 0.8

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            SyntheticSpec(n_samples=10)
        with pytest.raises(ParameterError):
            SyntheticSpec(n_samples=100, noise_scale=-1.0)
        with pytest.raises(ParameterError):
            SyntheticSpec(n_samples=100, target_function="cubic")

    def test_generation_is_seed_deterministic(self):
        spec = SyntheticSpec(n_samples=100, seed=9)
        d1, d2 = generate_synthetic(spec), generate_synthetic(spec)
        assert np.array_equal(d1.features, d2.features)
        assert np.array_equal(d1.targets, d2.targets)

    def test_sigma_function_is_positive(self):
        spec = SyntheticSpec(n_samples=100, noise_model="input_dependent", noise_scale=2.0)
        x = np.linspace(-3, 3, 50).reshape(-1, 1)
        sigma = noise_sigma(spec, x)
        assert np.all(sigma > 0)
        assert np.all(np.diff(sigma) > 0)  # monotone in x0 for this family


class TestCsv:
    def test_minimal_parse(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("x,y\n1,2\n3,4\n")
        data = load_csv(path, CsvSchema(feature_columns=("x",), target_column="y"))
        assert data.features.tolist() == [[1.0], [3.0]]
        assert data.targets.tolist() == [2.0, 4.0]

    def test_nan_cell_rejected_with_coordinates(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\nNaN,4\n")
        with pytest.raises(DataSchemaError, match="row 2, column 0"):
            load_csv(path, CsvSchema(feature_columns=("x",), target_column="y"))

    def test_unparseable_cell_rejected_with_coordinates(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,duck\n")
        with pytest.raises(DataSchemaError, match="row 1, column 1"):
            load_csv(path, CsvSchema(feature_columns=("x",), target_column="y"))

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataSchemaError, match="'z'"):
            load_csv(path, CsvSchema(feature_columns=("z",), target_column="b"))

    def test_repeated_header_name_refused_naming_it(self, tmp_path):
        path = tmp_path / "twice.csv"
        path.write_text("x,x,y\n1,5,2\n3,6,4\n")
        with pytest.raises(DataSchemaError) as err:
            load_csv(path, CsvSchema(feature_columns=("x",), target_column="y"))
        assert str(err.value) == f"{path}: the header names column 'x' more than once"

    @pytest.mark.parametrize(
        "schema, shown",
        [
            (CsvSchema(feature_columns=("x", "y"), target_column="y"), "'y'"),
            (CsvSchema(feature_columns=("0", "1"), target_column="1", has_header=False), "'1'"),
            (CsvSchema(feature_columns=("01",), target_column="1", has_header=False), "'1'"),
        ],
        ids=["name", "index", "index-spelled-twice"],
    )
    def test_target_as_feature_refused_naming_it(self, tmp_path, schema, shown):
        path = tmp_path / "answer.csv"
        path.write_text(("x,y\n" if schema.has_header else "") + "1,2\n3,4\n")
        with pytest.raises(DataSchemaError) as err:
            load_csv(path, schema)
        assert str(err.value) == f"{path}: target column {shown} is also a feature"

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataSchemaError, match="empty"):
            load_csv(path, CsvSchema(feature_columns=("x",), target_column="y"))

    def test_constant_target_rejected_naming_file_and_column(self, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text("x,y\n1,1.5\n2,1.5\n3,1.5\n")
        with pytest.raises(DataSchemaError) as err:
            load_csv(path, CsvSchema(feature_columns=("x",), target_column="y"))
        assert str(err.value) == f"target column 'y' of {path} is constant"

    def test_headerless_indices(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1,2,10\n3,4,20\n")
        data = load_csv(
            path, CsvSchema(feature_columns=("0", "1"), target_column="2", has_header=False)
        )
        assert data.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert data.targets.tolist() == [10.0, 20.0]

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b\n1,2\n3,4\n")
        data = load_csv(path, CsvSchema(feature_columns=("a",), target_column="b"))
        assert data.features.tolist() == [[1.0], [3.0]]
        assert data.targets.tolist() == [2.0, 4.0]

    def test_full_precision_reals_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        original = RegressionDataset(
            features=rng.normal(size=(11, 3)), targets=rng.normal(size=11)
        )
        path = tmp_path / "roundtrip.csv"
        rows = np.column_stack([original.features, original.targets])
        lines = ["x0,x1,x2,y"] + [",".join(repr(float(v)) for v in row) for row in rows]
        path.write_text("\n".join(lines) + "\n")
        again = load_csv(
            path, CsvSchema(feature_columns=("x0", "x1", "x2"), target_column="y")
        )
        assert np.array_equal(again.features, original.features)
        assert np.array_equal(again.targets, original.targets)


class TestSplit:
    def make_data(self, n=1000):
        rng = np.random.default_rng(6)
        return RegressionDataset(
            features=rng.normal(size=(n, 2)), targets=rng.normal(size=n)
        )

    def test_split_sizes(self):
        # 1000 training rows at 10% labels -> 100 labeled, 900 unlabeled
        data = self.make_data(1250)
        split = split_semi_supervised(data, 0.1, 0.1, 0.1, Rng(1))
        assert split.labeled.n == 100
        assert split.unlabeled.n == 900
        assert split.validation.n == 125 and split.test.n == 125

    def test_partitions_disjoint_and_exhaustive(self):
        data = self.make_data(500)
        split = split_semi_supervised(data, 0.2, 0.15, 0.25, Rng(2))
        parts = [split.labeled, split.unlabeled, split.validation, split.test]
        assert sum(p.n for p in parts) == 500
        seen = np.concatenate([p.features[:, 0] for p in parts])
        assert np.array_equal(np.sort(seen), np.sort(data.features[:, 0]))

    def test_unlabeled_targets_hidden_but_oracle_kept(self):
        data = self.make_data(200)
        split = split_semi_supervised(data, 0.5, 0.1, 0.1, Rng(3))
        assert split.unlabeled.targets is None
        assert split.oracle_unlabeled_targets is not None
        assert split.oracle_unlabeled_targets.shape == (split.unlabeled.n,)

    def test_full_label_fraction_leaves_empty_unlabeled(self):
        data = self.make_data(100)
        split = split_semi_supervised(data, 1.0, 0.1, 0.1, Rng(4))
        assert split.unlabeled.n == 0
        assert split.labeled.n == 80

    def test_same_seed_same_partition(self):
        data = self.make_data(300)
        s1 = split_semi_supervised(data, 0.3, 0.1, 0.2, Rng(5))
        s2 = split_semi_supervised(data, 0.3, 0.1, 0.2, Rng(5))
        assert np.array_equal(s1.labeled.features, s2.labeled.features)
        assert np.array_equal(s1.test.targets, s2.test.targets)

    def test_unscorable_partitions_refused_naming_their_fraction(self):
        data = self.make_data(100)
        with pytest.raises(ParameterError, match=r"^val_fraction=0\.0 .* 0 of 100 rows"):
            split_semi_supervised(data, 0.5, 0.0, 0.2, Rng(0))
        with pytest.raises(ParameterError, match=r"^test_fraction=0\.01 .* 1 of 100 rows"):
            split_semi_supervised(data, 0.5, 0.2, 0.01, Rng(0))
        split = split_semi_supervised(data, 0.5, 0.01, 0.02, Rng(0))  # the least scorable
        assert (split.validation.n, split.test.n) == (1, 2)

    def test_fraction_validation(self):
        data = self.make_data(100)
        with pytest.raises(ParameterError):
            split_semi_supervised(data, 0.0, 0.1, 0.1, Rng(0))
        with pytest.raises(ParameterError):
            split_semi_supervised(data, 0.5, 0.6, 0.5, Rng(0))


class TestNormalizer:
    def make_labeled(self, n=200, seed=7):
        rng = np.random.default_rng(seed)
        return RegressionDataset(
            features=rng.normal(loc=3.0, scale=2.0, size=(n, 2)),
            targets=rng.normal(loc=-5.0, scale=4.0, size=n),
        )

    def test_standardized_data_passes_through(self):
        rng = np.random.default_rng(8)
        feats = rng.normal(size=(5000, 2))
        feats = (feats - feats.mean(axis=0)) / feats.std(axis=0)
        targets = rng.normal(size=5000)
        targets = (targets - targets.mean()) / targets.std()
        data = RegressionDataset(features=feats, targets=targets)
        norm = Normalizer(data)
        out = norm.transform_dataset(data)
        assert np.allclose(out.features, feats, atol=1e-12)
        assert np.allclose(out.targets, targets, atol=1e-12)

    def test_transform_then_inverse_is_identity(self):
        data = self.make_labeled()
        norm = Normalizer(data)
        transformed = norm.transform_targets(data.targets)
        assert np.allclose(norm.inverse_targets(transformed), data.targets, atol=1e-12)
        assert abs(transformed.mean()) < 1e-12
        assert abs(transformed.std() - 1.0) < 1e-12

    def test_constant_feature_passes_through_with_warning(self):
        rng = np.random.default_rng(9)
        feats = np.column_stack([np.full(50, 7.0), rng.normal(size=50)])
        data = RegressionDataset(features=feats, targets=rng.normal(size=50))
        with pytest.warns(UserWarning, match="feature 0"):
            norm = Normalizer(data)
        assert norm.constant_features == (0,)
        out = norm.transform_features(data.features)
        assert np.array_equal(out[:, 0], feats[:, 0])

    def test_log_var_offset_converts_units(self):
        data = self.make_labeled()
        norm = Normalizer(data)
        # variance 1 on the normalized scale is target_std**2 in original units
        assert np.isclose(np.exp(0.0 + norm.log_var_offset), norm.target_std**2)

    def test_stats_come_from_the_given_dataset_only(self):
        data = self.make_labeled(seed=10)
        norm = Normalizer(data)
        other = self.make_labeled(n=50, seed=11)
        transformed = norm.transform_dataset(other)
        # other dataset keeps a nonzero mean under labeled-set statistics
        assert abs(transformed.targets.mean()) > 0.001
