"""navcast: ARIMA, from-scratch LSTM, and their additive hybrid for
one-step-ahead forecasting of fund net-asset-value series."""

from .arima import ArimaModel, ArimaOrder, OrderSearchReport, aic, fit, forecast_one, residuals, select_order
from .errors import (
    AnalysisError,
    ComparisonError,
    ConfigurationError,
    DegenerateInputError,
    FitError,
    IngestionError,
    NavcastError,
    NumericalError,
)
from .hybrid import (
    CompareResult,
    EvalRun,
    HybridModel,
    compare_models,
    fit_hybrid,
    sliding_window_evaluate,
)
from .lstm import (
    LstmCellParams,
    LstmNetwork,
    SupervisedWindowSet,
    TrainConfig,
    bptt_gradients,
    forward,
    init_network,
    make_windows,
    train,
)
from .metrics import MetricsReport, build_report, mae, mse, rmse
from .series import (
    AdfResult,
    CorrelogramPoint,
    ScaleParams,
    SplitSpec,
    TimeSeries,
    acf,
    adf_test,
    difference,
    fit_scale,
    minmax_scale,
    minmax_unscale,
    pacf,
    split,
)

__version__ = "0.1.0"
